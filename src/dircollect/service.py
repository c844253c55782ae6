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
import signal
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .archive import Archive, index_json_bytes
from .clock import Clock, SystemClock
from .dirserver import DirServer
from .docmodel import fmt_ts
from .errors import CollectorError, ConfigError
from .fetcher import Fetcher, Role, ServerEndpoint
from .metrics import Metrics
from .plugins import PluginContext, PluginHost, discover
from .refchecker import ReferenceChecker
from .scheduler import Scheduler

log = logging.getLogger("dircollect.service")

ENV_CONFIG = "DIRCOLLECT_CONFIG"

_ROLE_NAMES = {
    "authority": Role.Authority,
    "directory-cache": Role.DirectoryCache,
    "dir-cache": Role.DirectoryCache,
    "cache": Role.DirectoryCache,
    "extra-info-cache": Role.ExtraInfoCache,
}


def normalize_role(name: str) -> Role:
    key = str(name).strip().lower().replace("_", "-")
    try:
        return _ROLE_NAMES[key]
    except KeyError:
        raise ConfigError(f"unknown server role {name!r}") from None


@dataclass
class Config:
    archive_root: Path = Path("data")
    listen: str = "127.0.0.1:7000"
    log_level: str = "INFO"
    max_open_files: int = 512
    missing_threshold: float = 0.005
    plugins_enabled: list[str] = field(default_factory=lambda: ["relaydescs"])
    servers: list[ServerEndpoint] = field(default_factory=list)
    settings: dict = field(default_factory=dict)


def _require_mapping(value, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _parse_servers(items) -> list[ServerEndpoint]:
    if items is None:
        return []
    if not isinstance(items, list):
        raise ConfigError("servers must be a list")
    out = []
    for i, item in enumerate(items):
        entry = _require_mapping(item, f"servers[{i}]")
        try:
            ident = str(entry["id"])
            address = str(entry["address"])
        except KeyError as exc:
            raise ConfigError(f"servers[{i}] is missing {exc.args[0]!r}") from None
        roles = frozenset(
            normalize_role(r) for r in entry.get("roles", ["directory-cache"])
        ) or frozenset({Role.DirectoryCache})
        out.append(ServerEndpoint(ident, address, roles))
    return out


def load_config(path: str | None = None,
                overrides: dict | None = None) -> Config:
    """Build the runtime config from a YAML file plus CLI overrides.

    Resolution order for the file: explicit path, then the
    DIRCOLLECT_CONFIG environment variable, then built-in defaults.
    """
    source = path or os.environ.get(ENV_CONFIG)
    raw: dict = {}
    if source:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                raw = _require_mapping(yaml.safe_load(fh), "config file")
        except OSError as exc:
            raise ConfigError(f"cannot read config {source!r}: {exc}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"bad YAML in {source!r}: {exc}") from None

    archive = _require_mapping(raw.get("archive"), "archive")
    serve = _require_mapping(raw.get("serve"), "serve")
    plugins = _require_mapping(raw.get("plugins"), "plugins")
    config = Config(settings=raw)
    config.archive_root = Path(archive.get("root", config.archive_root))
    try:
        config.max_open_files = int(
            archive.get("max_open_files", config.max_open_files))
    except (TypeError, ValueError):
        raise ConfigError("archive.max_open_files must be an integer") from None
    try:
        config.missing_threshold = float(
            archive.get("missing_threshold", config.missing_threshold))
    except (TypeError, ValueError):
        raise ConfigError("archive.missing_threshold must be a number") from None
    config.listen = str(serve.get("listen", config.listen))
    config.log_level = str(raw.get("log_level", config.log_level))
    enabled = plugins.get("enabled")
    if enabled is not None:
        if not isinstance(enabled, list):
            raise ConfigError("plugins.enabled must be a list")
        config.plugins_enabled = [str(name) for name in enabled]
    config.servers = _parse_servers(raw.get("servers"))

    overrides = overrides or {}
    if overrides.get("archive_root"):
        config.archive_root = Path(overrides["archive_root"])
    if overrides.get("listen"):
        config.listen = overrides["listen"]
    if overrides.get("log_level"):
        config.log_level = overrides["log_level"]
    return config


class Service:
    """The assembled collector: one archive, one scheduler, N plugins."""

    def __init__(self, config: Config, clock: Clock | None = None,
                 metrics: Metrics | None = None):
        self.config = config
        self.clock = clock or SystemClock()
        self.metrics = metrics or Metrics()
        self.archive = Archive(config.archive_root, self.clock,
                               metrics=self.metrics,
                               max_open_files=config.max_open_files,
                               missing_threshold=config.missing_threshold)
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
            servers=self.servers, settings=config.settings,
            metrics=self.metrics,
        )
        self.plugins = discover(config.plugins_enabled, context, self.host)
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
        self.archive.recent_snapshot()
        self.write_index()
        log.info("event=once_complete stored=%d", stored)
        return stored

    # -- operator surface -----------------------------------------------------

    def write_index(self) -> Path:
        target = self.archive.root / "index.json"
        data = index_json_bytes(self.archive.build_index())
        tmp = target.with_name(".index.json.tmp")
        tmp.write_bytes(data)
        os.replace(tmp, target)
        return target

    def status(self) -> dict:
        timings = self.scheduler.timings
        return {
            "time": fmt_ts(self.clock.now()),
            "phase": self.scheduler.phase().name.lower(),
            "valid_after": fmt_ts(timings.valid_after) if timings else None,
            "counts": self.archive.counts(),
            "expectations_pending": int(
                self.metrics.gauge("refchecker.expectations_pending")),
            "permanently_missed": sum(
                p.permanently_missed_count() for p in self.plugins),
            "plugins": [p.name for p in self.plugins],
            "jobs": {name: fmt_ts(at) for name, at
                     in sorted(self.scheduler.completions().items())},
        }


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
    service = Service(config)
    service.dirserver.start()
    log.info("event=serving listen=%s", service.dirserver.address)
    try:
        _wait_for_signal()
    finally:
        service.dirserver.stop()
    return 0


def _cmd_import(config: Config, path: str) -> int:
    archive = Archive(config.archive_root, SystemClock(),
                      max_open_files=config.max_open_files,
                      missing_threshold=config.missing_threshold)
    report = archive.import_path(path)
    for type_name, n in sorted(report.stored.items()):
        print(f"stored {type_name}={n}")
    print(f"total={report.total} duplicates={report.duplicates} "
          f"errors={len(report.errors)}")
    for name, error in report.errors[:20]:
        print(f"error {name}: {error}", file=sys.stderr)
    return 0


def _cmd_verify(config: Config) -> int:
    archive = Archive(config.archive_root, SystemClock(),
                      max_open_files=config.max_open_files,
                      missing_threshold=config.missing_threshold)
    report = archive.verify_integrity()
    print(f"checked={report.checked} corrupt={len(report.corrupt)} "
          f"missing={report.missing}/{report.total_references} "
          f"missing_ratio={report.missing_ratio:.4f} warn={report.warn}")
    for path in report.corrupt[:20]:
        print(f"corrupt {path}", file=sys.stderr)
    return 1 if report.corrupt else 0


def _cmd_index(config: Config) -> int:
    service = Service(config)
    target = service.write_index()
    print(target)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=(args.log_level or "INFO").upper(),
        format="%(asctime)s %(levelname)s %(name)s %(message)s",
    )
    try:
        config = load_config(args.config, {
            "archive_root": args.archive_root,
            "listen": args.listen,
            "log_level": args.log_level,
        })
        logging.getLogger().setLevel(config.log_level.upper())
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
