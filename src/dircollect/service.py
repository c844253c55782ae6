"""Service wiring and the `dircollect` command line.

Reads a YAML config, assembles the archive / fetcher / scheduler /
plugin stack, and exposes the operations an operator actually runs:
collect continuously, collect once, import existing files, verify the
archive, rebuild the index, or just serve what is already on disk.
"""

from __future__ import annotations

import argparse
import logging
import os
import re
import signal
import sys
import threading
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from urllib.parse import urlsplit

import yaml

from .archive import Archive, index_json_bytes
from .clock import Clock, SystemClock
from .dirserver import DirServer
from .docmodel import fmt_ts
from .errors import CollectorError, ConfigError
from .fetcher import Fetcher, Role, ServerEndpoint
from .metrics import Metrics
from .plugins import (BUILTIN, OnionPerfConfig, PluginContext, PluginHost,
                      TasksConfig, discover)
from .refchecker import ReferenceChecker
from .scheduler import Scheduler

log = logging.getLogger("dircollect.service")

ENV_CONFIG = "DIRCOLLECT_CONFIG"


@dataclass
class Config:
    archive_root: Path = Path("data")
    listen: str = "127.0.0.1:7000"
    log_level: str = "INFO"
    plugins_enabled: list[str] = field(default_factory=lambda: ["relaydescs"])
    servers: list[ServerEndpoint] = field(default_factory=list)
    tasks: TasksConfig = TasksConfig()
    onionperf: OnionPerfConfig = OnionPerfConfig()
    #: the ``tasks`` and ``onionperf`` sections as raw YAML, checked as
    #: in a config file
    settings: InitVar[dict | None] = None

    def __post_init__(self, settings):
        for name, value in _fields(settings, "", _PLUGIN_SECTIONS).items():
            setattr(self, name, value)


# --- the config format: each key, and the check its value must pass ----------
# A check takes (value, dotted key) and returns the typed value, or raises
# a ConfigError naming the key and the value.


def _bad(where: str, wanted: str, value) -> ConfigError:
    return ConfigError(f"{where} must be {wanted}, got {value!r}")


def _mapping(value, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise _bad(where or "the config file", "a mapping", value)
    return value


def _fields(value, where: str, spec: dict) -> dict:
    """Check a mapping against ``spec``: key -> (field name, check), or
    key -> the spec of a subsection. Returns the checked values by field
    name; a key ``spec`` lacks is an error."""
    out = {}
    for key, item in _mapping(value, where).items():
        path = f"{where}.{key}" if where else str(key)
        if key not in spec:
            raise ConfigError(f"unknown key {path}")
        if isinstance(spec[key], dict):
            out.update(_fields(item, path, spec[key]))
        else:
            out[spec[key][0]] = spec[key][1](item, path)
    return out


def _check(kind, wanted: str, test=None, convert=None):
    """The check that a value is a ``kind`` (a bool is no number) that
    passes ``test``; ``convert`` makes the typed value of it."""
    def check(value, where: str):
        if (not isinstance(value, kind) or isinstance(value, bool) and kind is not bool
                or test and not test(value)):
            raise _bad(where, wanted, value)
        return convert(value) if convert else value
    return check


_list = _check(list, "a list")
_text = _check(str, "a non-empty string", bool)
_flag = _check(bool, "true or false")
# from a millisecond, which a timedelta does not round to zero, to ~30
# years, which the scheduler can still add to a date
_interval = _check((int, float), "a number of seconds from 0.001 to 1e9",
                   lambda value: 1e-3 <= value <= 1e9, float)
_daily_at = _check(str, 'a quoted "HH:MM" time of day',
                   lambda value: re.fullmatch(r"([01]?[0-9]|2[0-3]):[0-5][0-9]", value))
_sizes = _check(list, "a list of positive byte counts", lambda value: all(
    isinstance(n, int) and not isinstance(n, bool) and n > 0 for n in value), tuple)
_address = _check(str, "host:port", lambda value: re.fullmatch(r".+:[0-9]{1,5}", value)
                  and int(value.rpartition(":")[2]) < 65536)
_log_level = _check(str, "a logging level name", lambda value: isinstance(
    logging.getLevelName(value.upper()), int), str.upper)
_ROLES = tuple(role.value for role in Role)
_roles = _check(list, f"a non-empty list of {', '.join(_ROLES)}",
                lambda value: value and all(name in _ROLES for name in value),
                lambda value: frozenset(map(Role, value)))
# votes, signatures and bandwidth files name their authority by this,
# in upper case
_fingerprint = _check(str, "an authority's 40-hex-digit v3 identity fingerprint",
                      lambda value: re.fullmatch(r"[0-9A-Fa-f]{40}", value), str.upper)
_plugin_names = _check(list, f"a list of {', '.join(BUILTIN)}",
                       lambda value: all(name in tuple(BUILTIN) for name in value))


def _hosts(value, where: str) -> tuple[tuple[str, str], ...]:
    """(source, url) per host; a source defaults to the first label of
    its url's host name."""
    hosts = {}
    for i, item in enumerate(_list(value, where)):
        path = f"{where}[{i}]"
        entry = {"url": item} if isinstance(item, str) else _fields(item, path, _HOST)
        try:
            host = urlsplit(entry["url"]).hostname
        except (KeyError, ValueError):  # no url, or not one urlsplit reads
            host = None
        source = entry.get("source") or (host or "").split(".")[0]
        if not host or not source or source in hosts:
            raise _bad(path, "a URL, or a new source and its url", item)
        hosts[source] = entry["url"]
    return tuple(hosts.items())


def _servers(value, where: str) -> list[ServerEndpoint]:
    servers = []
    for i, item in enumerate(_list(value, where)):
        path = f"{where}[{i}]"
        entry = _fields(item, path, _SERVER)
        if "server_id" not in entry or "address" not in entry:
            raise ConfigError(f"{path} needs an id and an address")
        if ServerEndpoint(**entry).is_authority:
            entry["server_id"] = _fingerprint(entry["server_id"], f"{path}.id")
        servers.append(ServerEndpoint(**entry))
    return servers


_HOST = {"source": ("source", _text), "url": ("url", _text)}
_SERVER = {"id": ("server_id", _text), "address": ("address", _address),
           "roles": ("roles", _roles)}
_TASKS = {
    "reference_check": {"interval_seconds": ("reference_check_interval", _interval)},
    "greedy_discovery": {"enabled": ("greedy_enabled", _flag),
                         "interval_seconds": ("greedy_interval", _interval)},
}
_ONIONPERF = {"hosts": ("hosts", _hosts), "sizes": ("sizes", _sizes),
              "daily_at": ("daily_at", _daily_at)}
_PLUGIN_SECTIONS = {
    "tasks": ("tasks", lambda v, w: TasksConfig(**_fields(v, w, _TASKS))),
    "onionperf": ("onionperf", lambda v, w: OnionPerfConfig(**_fields(v, w, _ONIONPERF))),
}
_FILE = {
    "archive": {"root": ("archive_root", lambda v, w: Path(_text(v, w)))},
    "serve": {"listen": ("listen", _address)},
    "log_level": ("log_level", _log_level),
    "plugins": {"enabled": ("plugins_enabled", _plugin_names)},
    "servers": ("servers", _servers),
    **_PLUGIN_SECTIONS,
}


def load_config(path: str | None = None,
                overrides: dict | None = None) -> Config:
    """Build the runtime config from a YAML file plus CLI overrides: the
    ``archive_root``, ``listen`` and ``log_level`` of ``overrides``.

    Resolution order for the file: explicit path, then the
    DIRCOLLECT_CONFIG environment variable, then built-in defaults.
    """
    source = path or os.environ.get(ENV_CONFIG)
    raw = None
    if source:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                raw = yaml.safe_load(fh)
        except (OSError, UnicodeError) as exc:
            raise ConfigError(f"cannot read config {source!r}: {exc}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"bad YAML in {source!r}: {exc}") from None
    fields = _fields(raw, "", _FILE)
    overrides = overrides or {}
    if overrides.get("archive_root"):
        fields["archive_root"] = Path(overrides["archive_root"])
    if overrides.get("listen"):
        fields["listen"] = _address(overrides["listen"], "--listen")
    if overrides.get("log_level"):
        fields["log_level"] = _log_level(overrides["log_level"], "--log-level")
    return Config(**fields)


class Service:
    """The assembled collector: one archive, one scheduler, N plugins."""

    def __init__(self, config: Config, clock: Clock | None = None,
                 metrics: Metrics | None = None):
        self.config = config
        self.clock = clock or SystemClock()
        self.metrics = metrics or Metrics()
        self.archive = Archive(config.archive_root, self.clock, metrics=self.metrics)
        self.fetcher = Fetcher(self.clock, metrics=self.metrics)
        self.scheduler = Scheduler(self.clock, self.metrics)
        self.servers = list(config.servers)
        self.refchecker = ReferenceChecker(
            self.archive, self.clock,
            authorities=[s.server_id for s in self.servers if s.is_authority],
            metrics=self.metrics,
        )
        self.host = PluginHost(self.archive, self.metrics)
        context = PluginContext(
            archive=self.archive, fetcher=self.fetcher, clock=self.clock,
            scheduler=self.scheduler, refchecker=self.refchecker,
            host=self.host, servers=self.servers, tasks=config.tasks,
            onionperf=config.onionperf, metrics=self.metrics,
        )
        self.plugins = discover(config.plugins_enabled, context)
        self.dirserver = DirServer(self.archive, self.clock,
                                   listen=config.listen, metrics=self.metrics,
                                   status_provider=self.status)
        self._started = False

    # -- lifecycle -------------------------------------------------------------

    def seed_from_archive(self) -> None:
        """Adopt whatever a previous run left behind (see `Plugin.seed`)."""
        for plugin in self.plugins:
            plugin.seed()

    def start(self) -> None:
        # jobs first, so a schedule restored from the archive places the
        # eager jobs at once instead of at the next consensus
        for plugin in self.plugins:
            plugin.register_jobs(self.scheduler)
        self.seed_from_archive()
        self.scheduler.start()
        self.dirserver.start()
        self._started = True
        log.info("event=service_started listen=%s plugins=%s",
                 self.dirserver.address,
                 ",".join(p.name for p in self.plugins) or "none")

    def stop(self) -> None:
        if not self._started:
            return
        self.scheduler.stop()
        self.dirserver.stop()
        self.archive.close()
        self._started = False
        log.info("event=service_stopped")

    def once(self) -> int:
        """A single collection pass; safe to run repeatedly."""
        self.seed_from_archive()
        stored = sum(plugin.run_once() for plugin in self.plugins)
        write_index(self.archive)
        log.info("event=once_complete stored=%d", stored)
        return stored

    # -- operator surface -----------------------------------------------------

    def status(self) -> dict:
        timings = self.scheduler.timings
        return {
            "time": fmt_ts(self.clock.now()),
            "phase": self.scheduler.phase().name.lower(),
            "valid_after": fmt_ts(timings.valid_after) if timings else None,
            "counts": self.archive.counts(),
            "expectations_pending": int(
                self.metrics.gauge("refchecker.expectations_pending")),
            "permanently_missed": self.refchecker.permanently_missed_count(),
            "plugins": [p.name for p in self.plugins],
            "jobs": {name: fmt_ts(at) for name, at
                     in sorted(self.scheduler.completions().items())},
        }


def write_index(archive: Archive) -> Path:
    """Write the archive's index.json, replacing it whole."""
    target = archive.root / "index.json"
    tmp = target.with_name(".index.json.tmp")
    tmp.write_bytes(index_json_bytes(archive.build_index()))
    os.replace(tmp, target)
    return target


# --- command line ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dircollect",
        description="Collect, archive, index and re-serve directory documents.",
    )
    parser.add_argument("--config", metavar="PATH",
                        help=f"YAML config file (or ${ENV_CONFIG})")
    parser.add_argument("--archive-root", metavar="DIR",
                        help="override archive.root")
    parser.add_argument("--listen", metavar="HOST:PORT",
                        help="override serve.listen")
    parser.add_argument("--log-level", metavar="LEVEL",
                        help="override log_level")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", help="collect and serve until interrupted")
    sub.add_parser("once", help="one collection pass, then exit")
    imp = sub.add_parser("import", help="ingest documents from a file or tree")
    imp.add_argument("path")
    sub.add_parser("verify", help="re-hash every stored document")
    sub.add_parser("index", help="rebuild index.json")
    sub.add_parser("serve", help="serve the archive without collecting")
    return parser


def _wait_for_signal() -> None:
    stop = threading.Event()

    def handler(signum, frame):
        log.info("event=signal signum=%d", signum)
        stop.set()

    signal.signal(signal.SIGINT, handler)
    signal.signal(signal.SIGTERM, handler)
    while not stop.is_set():
        stop.wait(1.0)


def _cmd_once(config: Config) -> int:
    Service(config).once()
    return 0


def _cmd_run(config: Config) -> int:
    service = Service(config)
    if not service.plugins:
        log.warning("event=no_plugins_active")
    service.start()
    try:
        _wait_for_signal()
    finally:
        service.stop()
    return 0


def _cmd_serve(config: Config) -> int:
    archive = _open_archive(config)
    server = DirServer(archive, archive.clock, listen=config.listen,
                       status_provider=lambda: {"counts": archive.counts()})
    server.start()
    log.info("event=serving listen=%s", server.address)
    try:
        _wait_for_signal()
    finally:
        server.stop()
        archive.close()
    return 0


def _open_archive(config: Config) -> Archive:
    """The archive alone, for the commands that do not collect."""
    return Archive(config.archive_root, SystemClock())


def _cmd_import(config: Config, path: str) -> int:
    report = _open_archive(config).import_path(path)
    for type_name, n in sorted(report.stored.items()):
        print(f"stored {type_name}={n}")
    print(f"total={report.total} duplicates={report.duplicates} "
          f"errors={len(report.errors)}")
    for name, error in report.errors[:20]:
        print(f"error {name}: {error}", file=sys.stderr)
    return 1 if report.errors else 0


def _cmd_verify(config: Config) -> int:
    report = _open_archive(config).verify_integrity()
    print(f"checked={report.checked} corrupt={len(report.corrupt)} "
          f"missing={report.missing}/{report.total_references} "
          f"missing_ratio={report.missing_ratio:.4f} warn={report.warn}")
    for path in report.corrupt[:20]:
        print(f"corrupt {path}", file=sys.stderr)
    return 1 if report.corrupt else 0


def _cmd_index(config: Config) -> int:
    print(write_index(_open_archive(config)))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(format="%(asctime)s %(levelname)s %(name)s %(message)s")
    try:
        config = load_config(args.config, vars(args))
        logging.getLogger().setLevel(config.log_level)
        if args.command == "run":
            return _cmd_run(config)
        if args.command == "once":
            return _cmd_once(config)
        if args.command == "import":
            return _cmd_import(config, args.path)
        if args.command == "verify":
            return _cmd_verify(config)
        if args.command == "index":
            return _cmd_index(config)
        if args.command == "serve":
            return _cmd_serve(config)
        raise AssertionError(f"unhandled command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CollectorError as exc:
        log.error("event=fatal error=%r", exc)
        return 1
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
