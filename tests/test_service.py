"""Config loading, service wiring and the command-line entry points."""

import json
import logging
import re
import time
import urllib.request
from datetime import datetime, timezone
from pathlib import Path

import pytest

import sample_docs
from dircollect import service as service_module
from dircollect.archive import Archive
from dircollect.clock import ManualClock, SystemClock
from dircollect.dirserver import DirServer
from dircollect.docmodel import DocType, DocumentIdentifier
from dircollect.errors import ConfigError
from dircollect.fetcher import Role, ServerEndpoint
from dircollect.service import Config, Service, load_config, main
from dircollect.simnet import SimNetwork, SimScenario


def ts(hour, minute=0, second=0):
    return datetime(2018, 11, 15, hour, minute, second, tzinfo=timezone.utc)


@pytest.fixture(autouse=True)
def no_env_config(monkeypatch):
    monkeypatch.delenv("DIRCOLLECT_CONFIG", raising=False)


# --- configuration ---------------------------------------------------------------


class TestConfig:
    def test_defaults_without_file(self):
        config = load_config(None)
        assert str(config.archive_root) == "data"
        assert config.listen == "127.0.0.1:7000"
        assert config.log_level == "INFO"
        assert config.plugins_enabled == ["relaydescs"]
        assert config.servers == []

    def test_yaml_file_round_trip(self, tmp_path):
        path = tmp_path / "collector.yaml"
        path.write_text(
            "archive:\n"
            "  root: /srv/archive\n"
            "serve:\n"
            "  listen: 0.0.0.0:8080\n"
            "log_level: debug\n"
            "plugins:\n"
            "  enabled: [relaydescs, onionperf]\n"
            "servers:\n"
            "  - id: d586d18309ded4cd6d57c18fdb97efa96d330566\n"
            "    address: 10.0.0.1:9030\n"
            "    roles: [authority]\n"
            "  - id: BBBB\n"
            "    address: 10.0.0.2:9030\n"
            "    roles: [extra-info-cache]\n"
            "onionperf:\n"
            "  daily_at: '01:30'\n"
        )
        config = load_config(str(path))
        assert str(config.archive_root) == "/srv/archive"
        assert config.log_level == "DEBUG"
        assert config.listen == "0.0.0.0:8080"
        assert config.plugins_enabled == ["relaydescs", "onionperf"]
        assert config.servers[0].is_authority
        assert config.servers[0].server_id == "D586D18309DED4CD6D57C18FDB97EFA96D330566"
        assert config.servers[1].server_id == "BBBB"
        assert config.servers[1].serves_extra_info()
        assert not config.servers[1].is_authority
        assert config.onionperf.daily_at == "01:30"

    def test_env_var_supplies_path(self, tmp_path, monkeypatch):
        path = tmp_path / "c.yaml"
        path.write_text("serve:\n  listen: 127.0.0.1:9999\n")
        monkeypatch.setenv("DIRCOLLECT_CONFIG", str(path))
        assert load_config(None).listen == "127.0.0.1:9999"

    def test_cli_overrides_win(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("archive:\n  root: /somewhere\n")
        config = load_config(str(path), {"archive_root": str(tmp_path),
                                         "listen": "127.0.0.1:1"})
        assert config.archive_root == tmp_path
        assert config.listen == "127.0.0.1:1"

    def test_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.yaml"))

    def test_bad_yaml_is_an_error(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("servers: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_malformed_sections_are_errors(self, tmp_path):
        cases = [
            ("servers: notalist\n", "servers must be a list"),
            ("servers:\n  - address: 1.2.3.4:80\n", "servers[0] needs an id"),
            ("servers:\n  - id: A\n    address: x:1\n    roles: [czar]\n",
             "servers[0].roles"),
            ("archive:\n  max_open_files: lots\n", "unknown key archive.max_open_files"),
            ("archive:\n  missing_threshold: low\n",
             "unknown key archive.missing_threshold"),
            ("plugins:\n  enabled: relaydescs\n", "plugins.enabled"),
        ]
        for body, message in cases:
            path = tmp_path / "c.yaml"
            path.write_text(body)
            with pytest.raises(ConfigError, match=re.escape(message)):
                load_config(str(path))

    def test_settings_pass_the_same_checks(self):
        config = Config(settings={"tasks": {"reference_check": {"interval_seconds": 300}},
                                  "onionperf": {"hosts": ["https://op-ab.example.org/"]}})
        assert config.tasks.reference_check_interval == 300.0
        assert config.onionperf.hosts == (("op-ab", "https://op-ab.example.org/"),)
        with pytest.raises(ConfigError, match=re.escape("unknown key tasks.reference_chek")):
            Config(settings={"tasks": {"reference_chek": {"interval_seconds": 5}}})

    def test_readme_quick_start_config_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        quick_start = readme.split("## Quick start", 1)[1]
        block = re.search(r"```yaml\n(.*?)```", quick_start, re.S).group(1)
        path = tmp_path / "collector.yaml"
        path.write_text(block)
        config = load_config(str(path))
        assert config.plugins_enabled == ["relaydescs", "onionperf"]
        assert [s.server_id for s in config.servers] == [
            "D586D18309DED4CD6D57C18FDB97EFA96D330566", "cache-1"]
        assert config.onionperf.hosts == (
            ("op-ab", "https://op-ab.example.org/"),
            ("op-cd", "https://op-cd.example.org/data/"),
        )


# --- the assembled service --------------------------------------------------------


@pytest.fixture
def clock():
    return ManualClock(ts(19, 5))


@pytest.fixture
def net(clock):
    network = SimNetwork(
        SimScenario(seed=23, n_authorities=3, n_relays=4, n_periods=3,
                    period_start=ts(19)),
        clock,
    )
    network.start()
    yield network
    network.stop()


def sim_config(tmp_path, net, **settings):
    return Config(
        archive_root=tmp_path / "data",
        listen="127.0.0.1:0",
        plugins_enabled=["relaydescs"],
        servers=[
            ServerEndpoint(identity, addr, frozenset({Role.Authority}))
            for identity, addr in net.endpoints()
        ],
        settings=settings,
    )


class TestServiceOnce:
    def test_once_collects_and_writes_index(self, tmp_path, clock, net):
        service = Service(sim_config(tmp_path, net), clock=clock)
        stored = service.once()
        assert stored > 0
        counts = service.archive.counts()
        assert counts.get("consensus") == 1
        assert counts.get("consensus-microdesc") == 1
        assert counts.get("server-descriptor") == 4
        assert (service.archive.root / "index.json").exists()
        assert (service.archive.root / "recent").exists()

    def test_once_is_idempotent_across_restarts(self, tmp_path, clock, net):
        first = Service(sim_config(tmp_path, net), clock=clock)
        assert first.once() > 0
        before = {e.path for e in first.archive.entries()}
        requests_before = len(net.requests())

        again = Service(sim_config(tmp_path, net), clock=clock)
        assert again.once() == 0
        assert {e.path for e in again.archive.entries()} == before
        # restart re-adopted timings from disk, so no bootstrap fetch
        consensus_fetches = [
            r for r in net.requests()[requests_before:]
            if r.path == "/tor/status-vote/current/consensus"
        ]
        assert consensus_fetches == []

    def test_status_reports_phase_and_counts(self, tmp_path, clock, net):
        service = Service(sim_config(tmp_path, net), clock=clock)
        service.once()
        status = service.status()
        assert status["phase"] in ("alpha", "beta")
        assert status["valid_after"] == "2018-11-15 19:00:00"
        assert status["counts"]["consensus"] == 1
        assert status["plugins"] == ["relaydescs"]

    def test_routes_status_and_seed_read_no_whole_archive(
            self, tmp_path, clock, net, monkeypatch):
        service = Service(sim_config(tmp_path, net), clock=clock)
        service.once()

        def scan(self):
            raise AssertionError("Archive.entries() called")

        monkeypatch.setattr(Archive, "entries", scan)
        for path in ("/tor/status-vote/current/consensus",
                     "/tor/status-vote/current/consensus-microdesc",
                     "/tor/server/all", "/tor/extra/all", "/status"):
            status, body, *_ = service.dirserver.respond(path)
            assert status == 200 and body, path
        service.seed_from_archive()

    def test_lower_case_authority_ids_archive_the_period(self, tmp_path, clock, net):
        path = tmp_path / "c.yaml"
        path.write_text("servers:\n" + "".join(
            f"  - {{id: {identity.lower()}, address: '{addr}', roles: [authority]}}\n"
            for identity, addr in net.endpoints()))
        config = load_config(str(path), {"archive_root": tmp_path / "data",
                                         "listen": "127.0.0.1:0"})
        assert [s.server_id for s in config.servers] == [i for i, _ in net.endpoints()]
        service = Service(config, clock=clock)
        # votes with their bandwidth files, signatures, the next consensus
        for moment in (ts(19, 52, 30), ts(19, 57, 30), ts(20, 0, 30)):
            clock.set(moment)
            service.once()
        counts = service.archive.counts()
        assert [counts.get(t) for t in ("vote", "bandwidth-file", "detached-signature")] \
            == [3, 3, 3]
        assert service.refchecker.permanently_missed_count() == 0

    def test_status_reports_the_shared_miss_ledger(self, tmp_path, clock):
        service = Service(Config(archive_root=tmp_path / "data", plugins_enabled=[]),
                          clock=clock)
        assert service.status()["permanently_missed"] == 0
        gone = DocumentIdentifier(DocType.TorperfResults, "op-ab-51200", clock.now())
        service.refchecker.miss(gone, clock.now(), "gone")
        assert service.status()["permanently_missed"] == 1


class TestServiceRun:
    def test_start_runs_jobs_and_serves_status(self, tmp_path, clock, net):
        service = Service(sim_config(tmp_path, net), clock=clock)
        service.start()
        try:
            deadline = time.time() + 15
            while time.time() < deadline:
                if service.archive.counts().get("server-descriptor") == 4:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("bootstrap never walked out to the descriptors")
            assert "bootstrap" in service.scheduler.completions()
            assert service.archive.counts().get("consensus") == 1
            with urllib.request.urlopen(
                f"http://{service.dirserver.address}/status", timeout=5
            ) as resp:
                status = json.loads(resp.read())
            assert status["counts"]["server-descriptor"] == 4
            assert status["valid_after"] == "2018-11-15 19:00:00"
        finally:
            service.stop()


    def test_restart_schedules_eager_jobs(self, tmp_path, clock, net):
        assert Service(sim_config(tmp_path, net), clock=clock).once() > 0
        restarted = Service(sim_config(tmp_path, net), clock=clock)
        restarted.start()  # 19:05, with the 19:00 consensus on disk
        try:
            clock.set(ts(19, 52, 30))
            deadline = time.time() + 15
            while "eager-votes" not in restarted.scheduler.completions():
                if time.time() > deadline:
                    pytest.fail("eager-votes never ran after the restart")
                time.sleep(0.05)
        finally:
            restarted.stop()


# --- the command line --------------------------------------------------------------


#: (id, config file, extra arguments, dotted key the error must name): the
#: silent or crashing values once seen, one bad value per key, and one
#: misspelled key per section
_MORIA = "id: moria1, address: '128.31.0.39:9131'"
BAD_CONFIGS = [
    ("interval-nan", "tasks: {reference_check: {interval_seconds: .nan}}", [],
     "tasks.reference_check.interval_seconds"),
    ("interval-inf", "tasks: {reference_check: {interval_seconds: .inf}}", [],
     "tasks.reference_check.interval_seconds"),
    ("interval-zero", "tasks: {reference_check: {interval_seconds: 0}}", [],
     "tasks.reference_check.interval_seconds"),
    ("greedy-interval-negative", "tasks: {greedy_discovery: {interval_seconds: -5}}", [],
     "tasks.greedy_discovery.interval_seconds"),
    ("greedy-enabled-string", 'tasks: {greedy_discovery: {enabled: "false"}}', [],
     "tasks.greedy_discovery.enabled"),
    ("tasks-misspelled", "tasks: {reference_chek: {interval_seconds: 5}}", [],
     "tasks.reference_chek"),
    ("greedy-misspelled", "tasks: {greedy_discovery: {interval: 5}}", [],
     "tasks.greedy_discovery.interval"),
    ("server-role-misspelled", f"servers: [{{{_MORIA}, role: [authority]}}]", [],
     "servers[0].role"),
    ("server-id-empty", "servers: [{id: '', address: '128.31.0.39:9131'}]", [],
     "servers[0].id"),
    ("server-address-no-port", "servers: [{id: moria1, address: 128.31.0.39}]", [],
     "servers[0].address"),
    ("role-alias", f"servers: [{{{_MORIA}, roles: [dir-cache]}}]", [], "servers[0].roles"),
    ("role-upper-case", f"servers: [{{{_MORIA}, roles: [Authority]}}]", [],
     "servers[0].roles"),
    ("servers-not-a-list", "servers: moria1", [], "servers"),
    ("authority-id-a-nickname", f"servers: [{{{_MORIA}, roles: [authority]}}]", [],
     "servers[0].id"),
    ("authority-id-39-hex", f"servers: [{{id: {'A' * 39}, address: 'a:1', roles: [authority]}}]",
     [], "servers[0].id"),
    ("authority-id-not-hex", f"servers: [{{id: {'G' * 40}, address: 'a:1', roles: [authority]}}]",
     [], "servers[0].id"),
    ("hosts-a-string", 'onionperf: {hosts: "https://op-ab.example.org/"}', [],
     "onionperf.hosts"),
    ("host-not-a-url", "onionperf: {hosts: [op-ab.example.org]}", [], "onionperf.hosts[0]"),
    ("host-misspelled", "onionperf: {hosts: [{source: op-ab, uri: 'https://op-ab.org/'}]}",
     [], "onionperf.hosts[0].uri"),
    ("sizes-not-a-list", "onionperf: {sizes: 51200}", [], "onionperf.sizes"),
    ("onionperf-misspelled", "onionperf: {size: [51200]}", [], "onionperf.size"),
    ("daily_at-7", 'onionperf: {daily_at: "7"}', [], "onionperf.daily_at"),
    ("daily_at-25:00", 'onionperf: {daily_at: "25:00"}', [], "onionperf.daily_at"),
    ("archive-max_open_files", "archive: {max_open_files: 0}", [], "archive.max_open_files"),
    ("archive-root-a-number", "archive: {root: 7}", [], "archive.root"),
    ("archive-misspelled", "archive: {rot: /srv/dircollect}", [], "archive.rot"),
    ("log_level-verbose", "log_level: verbose", [], "log_level"),
    ("top-level-misspelled", "log-level: INFO", [], "log-level"),
    ("cli-log-level-bogus", "", ["--log-level", "bogus"], "--log-level"),
    ("listen-no-port", "serve: {listen: localhost}", [], "serve.listen"),
    ("serve-misspelled", "serve: {lisen: '127.0.0.1:7000'}", [], "serve.lisen"),
    ("plugin-unknown", "plugins: {enabled: [relaydesc]}", [], "plugins.enabled"),
    ("plugins-misspelled", "plugins: {enable: [relaydescs]}", [], "plugins.enable"),
]


def write_docs(directory):
    directory.mkdir()
    (directory / "consensus.txt").write_bytes(sample_docs.CONSENSUS_NS)
    (directory / "descriptor.txt").write_bytes(sample_docs.SERVER_DESCRIPTOR)


class TestCli:
    def test_import_then_verify(self, tmp_path, capsys):
        incoming = tmp_path / "incoming"
        write_docs(incoming)
        root = str(tmp_path / "data")
        assert main(["--archive-root", root, "import", str(incoming)]) == 0
        out = capsys.readouterr().out
        assert "total=2" in out
        assert main(["--archive-root", root, "verify"]) == 0
        out = capsys.readouterr().out
        assert "checked=2" in out
        assert "corrupt=0" in out

    def test_verify_flags_corruption(self, tmp_path, capsys):
        incoming = tmp_path / "incoming"
        write_docs(incoming)
        root = tmp_path / "data"
        assert main(["--archive-root", str(root), "import", str(incoming)]) == 0
        archive = Archive(root, SystemClock())
        (victim,) = archive.of_type(DocType.ConsensusNs)
        (descriptor,) = archive.of_type(DocType.ServerDescriptor)
        archive.close()
        segment = root / "archive" / victim.segment
        data = bytearray(segment.read_bytes())
        data[victim.offset:victim.offset + victim.size_bytes] = b"X" * victim.size_bytes
        segment.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["--archive-root", str(root), "verify"]) == 1
        captured = capsys.readouterr()
        assert "checked=2 corrupt=1" in captured.out
        assert f"corrupt {victim.path}" in captured.err
        assert descriptor.path not in captured.err

    def test_index_is_byte_stable(self, tmp_path, capsys):
        incoming = tmp_path / "incoming"
        write_docs(incoming)
        root = str(tmp_path / "data")
        main(["--archive-root", root, "import", str(incoming)])
        assert main(["--archive-root", root, "index"]) == 0
        first = (tmp_path / "data" / "index.json").read_bytes()
        assert main(["--archive-root", root, "index"]) == 0
        assert (tmp_path / "data" / "index.json").read_bytes() == first
        assert json.loads(first)["entries"]

    def test_index_opens_the_archive_alone(self, tmp_path, caplog):
        # no servers configured: a whole service would fail to start relaydescs
        root = str(tmp_path / "data")
        assert main(["--archive-root", root, "index"]) == 0
        assert (tmp_path / "data" / "index.json").exists()
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == []

    def test_serve_opens_the_archive_and_a_server_alone(self, tmp_path, caplog,
                                                         monkeypatch):
        incoming = tmp_path / "incoming"
        write_docs(incoming)
        root = tmp_path / "data"
        assert main(["--archive-root", str(root), "import", str(incoming)]) == 0
        servers, answers = [], []

        class Recording(DirServer):
            def start(self):
                super().start()
                servers.append(self)

        def query_status():
            url = f"http://{servers[0].address}/status"
            with urllib.request.urlopen(url, timeout=5) as resp:
                answers.append(json.loads(resp.read()))

        monkeypatch.setattr(service_module, "DirServer", Recording)
        monkeypatch.setattr(service_module, "_wait_for_signal", query_status)
        # no servers configured: relaydescs could not start
        config = Config(archive_root=root, listen="127.0.0.1:0")
        assert service_module._cmd_serve(config) == 0
        assert answers == [{"counts": {"consensus": 1, "server-descriptor": 1}}]
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == []

    def test_config_errors_exit_2(self, tmp_path):
        assert main(["--config", str(tmp_path / "missing.yaml"), "once"]) == 2

    @pytest.mark.parametrize("body, args, key", [row[1:] for row in BAD_CONFIGS],
                             ids=[row[0] for row in BAD_CONFIGS])
    def test_bad_config_exits_2_naming_the_key(self, tmp_path, capsys, body, args, key):
        path = tmp_path / "c.yaml"
        path.write_text(body + "\n")
        argv = ["--config", str(path), "--archive-root", str(tmp_path / "data"), *args]
        assert main([*argv, "index"]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    def test_import_of_a_missing_path_fails(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir"
        assert main(["--archive-root", str(tmp_path / "data"), "import", str(missing)]) == 1
        assert f"error {missing}" in capsys.readouterr().err

    def test_once_via_cli(self, tmp_path):
        now = datetime.now(timezone.utc)
        start = now.replace(minute=0, second=0, microsecond=0)
        network = SimNetwork(
            SimScenario(seed=5, n_authorities=3, n_relays=3, n_periods=4,
                        period_start=start),
            SystemClock(),
        )
        network.start()
        try:
            lines = ["archive:", f"  root: {tmp_path / 'data'}", "servers:"]
            for identity, addr in network.endpoints():
                lines += [f"  - id: {identity}", f"    address: {addr}",
                          "    roles: [authority]"]
            config = tmp_path / "c.yaml"
            config.write_text("\n".join(lines) + "\n")
            assert main(["--config", str(config), "once"]) == 0
            assert (tmp_path / "data" / "index.json").exists()
            archive = Archive(tmp_path / "data", SystemClock())
            consensuses = archive.of_type(DocType.ConsensusNs)
            assert consensuses
            consensus = consensuses[-1]
            segment = (tmp_path / "data" / "archive" / consensus.segment).read_bytes()
            stored = segment[consensus.offset:consensus.offset + consensus.size_bytes]
            assert stored.startswith(b"@type network-status-consensus-3 1.0\n")
            assert stored.split(b"\n", 1)[1] == archive.load_entry(consensus).body
        finally:
            network.stop()
