"""Command line front-end.

Subcommands: probe-check, list, run, report, compare, baseline, one row
each of ``_COMMANDS``. An invocation builds the parser of its own command
only, so a command does not pay for the others' flags. All commands are
non-interactive and run without a terminal attached.
Diagnostics go to standard error; exit codes follow a fixed contract:
0 success, 1 user or configuration error, 2 environment error (probe or
harness unavailable), 3 internal error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import os
import shlex
import sys
from pathlib import Path

from manai import errors
from manai.experiment import (
    DEFAULT_DATA_DIR,
    BaselineSetting,
    ExperimentConfig,
    effective_config_items,
    resolve_revision_label,
    run_experiment,
)
from manai.harness import HarnessCommand, discover
from manai.probe import EnergyDomain, ProbeBackend, create_probe
from manai.protocol import TestId
from manai.report import ReportFormat, ReportRequest, export, render_head, write_document
from manai.sampler import BaselineProfile, calibrate_baseline
from manai.store import Store

log = logging.getLogger("manai")

EXIT_OK = 0
EXIT_USER = 1
EXIT_ENV = 2
EXIT_INTERNAL = 3

DATA_DIR_ENV = "MANAI_DATA_DIR"


class _UsageError(errors.UserError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; our contract reserves 2
    # for environment errors, so route usage problems through exit 1.
    def error(self, message):
        raise _UsageError(message)


# --------------------------------------------------------------------------
# config file
# --------------------------------------------------------------------------


def _optional_path(text: str) -> Path | None:
    return Path(text) if text else None


def _positive_interval(text: str) -> int | None:
    value = int(text) if text else None
    if value is not None and value <= 0:
        raise ValueError(f"update_interval_ns must be positive, got {value}")
    return value


def _parse_baseline(text: str) -> BaselineSetting:
    if text in ("", "off"):
        return BaselineSetting()
    mode, _, value = text.partition(":")
    if mode == "calibrate":
        return BaselineSetting(mode="calibrate", calibrate_duration_s=float(value))
    if mode == "fixed":
        try:
            doc = json.loads(Path(value).read_text(encoding="utf-8"))
            profile = BaselineProfile(
                powers_w={EnergyDomain.parse(k): float(v) for k, v in doc["powers_w"].items()},
                duration_s=float(doc["duration_s"]),
                calibrated_at=str(doc["calibrated_at"]),
            )
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"cannot load baseline profile {value}: {exc}") from exc
        return BaselineSetting(mode="fixed", profile=profile)
    raise ValueError("use off, calibrate:<secs> or fixed:<path>")


def _parse_selection(text: str) -> tuple[TestId, ...]:
    return tuple(TestId.parse(part.strip()) for part in text.split(",") if part.strip())


# Every config key: _SETTINGS[section][key] = (flag dest or None, default
# text, parser). A parser raises ValueError, or InvalidConfig from the
# constructor it calls, on bad text; a key without one is accepted and
# ignored. --harness (program and args in one) and the MANAI_DATA_DIR
# precedence are resolved outside the table.
_SETTINGS = {
    "harness": {
        "program": (None, "", str),
        "args": (None, "", shlex.split),
        "list_args": ("list_args", "", shlex.split),
        "working_dir": (None, "", _optional_path),
        "timeout_s": ("timeout", "120", lambda text: None if text in ("", "none") else float(text)),
    },
    "probe": {
        "backend": ("probe", ProbeBackend.RAPL.value, ProbeBackend),
        "scenario": ("scenario", "", _optional_path),
        "update_interval_ns": ("update_interval_ns", "", _positive_interval),
        "powercap_root": (None, "", _optional_path),
    },
    "experiment": {
        # The old replay rate: older config files and scripts still load.
        "rate_hz": ("rate", "", None),
        "iterations": ("iterations", "1", int),
        "select": ("select", "", _parse_selection),
        "revision": ("revision", "", resolve_revision_label),
        "baseline": ("baseline", "off", _parse_baseline),
        "data_dir": (None, "", _optional_path),
    },
}


def _setting(args, cfg, section: str, key: str):
    """The parsed value of one key: from its flag if given, else the config
    file, else the default."""
    flag, default, parse = _SETTINGS[section][key]
    text = getattr(args, flag, None) if flag else None
    if text is None:
        text = cfg.get(section, {}).get(key, default)
    try:
        return parse(text)
    except (ValueError, errors.InvalidConfig) as exc:
        raise errors.InvalidConfig(f"bad [{section}] {key} {text!r}: {exc}") from None


def _load_config_file(path: Path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # preserve case for env.NAME keys
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise errors.InvalidConfig(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise errors.InvalidConfig(f"malformed config {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SETTINGS:
            raise errors.InvalidConfig(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SETTINGS[section] and not (section == "harness" and key.startswith("env.")):
                raise errors.InvalidConfig(f"unknown config key {key!r} in [{section}]")
    return {section: dict(parser.items(section)) for section in parser.sections()}


def _build_harness(args, cfg) -> HarnessCommand:
    if getattr(args, "harness", None):
        try:
            program, *harness_args = shlex.split(args.harness) or [""]
        except ValueError as exc:
            raise errors.InvalidConfig(f"bad --harness {args.harness!r}: {exc}") from None
    else:
        program = _setting(args, cfg, "harness", "program")
        harness_args = _setting(args, cfg, "harness", "args")
    if not program:
        raise errors.InvalidConfig("no harness configured; set [harness] program or --harness")
    env = {
        key[len("env."):]: value
        for key, value in cfg.get("harness", {}).items()
        if key.startswith("env.")
    }
    return HarnessCommand(
        program=program,
        args=tuple(harness_args),
        working_dir=_setting(args, cfg, "harness", "working_dir"),
        env=env,
        list_args=tuple(_setting(args, cfg, "harness", "list_args")),
    )


def _data_dir(args, cfg) -> Path:
    """--data-dir, else MANAI_DATA_DIR, else [experiment] data_dir, else .manai."""
    flag_or_env = getattr(args, "data_dir", None) or os.environ.get(DATA_DIR_ENV)
    return Path(flag_or_env or _setting(args, cfg, "experiment", "data_dir") or DEFAULT_DATA_DIR)


def _probe_settings(args, cfg) -> tuple:
    """Backend, scenario, powercap root and update interval, in create_probe order."""
    keys = ("backend", "scenario", "powercap_root", "update_interval_ns")
    return tuple(_setting(args, cfg, "probe", key) for key in keys)


def _build_experiment_config(args, cfg) -> ExperimentConfig:
    if args.rate is not None or "rate_hz" in cfg.get("experiment", {}):
        log.warning("ignoring [experiment] rate_hz and --rate: every window is read at its edges")
    backend, scenario_path, powercap_root, update_interval_ns = _probe_settings(args, cfg)
    return ExperimentConfig(
        iterations=_setting(args, cfg, "experiment", "iterations"),
        test_timeout_s=_setting(args, cfg, "harness", "timeout_s"),
        harness=_build_harness(args, cfg),
        revision_label=_setting(args, cfg, "experiment", "revision"),
        selection=_setting(args, cfg, "experiment", "select"),
        probe_backend=backend,
        scenario_path=scenario_path,
        baseline=_setting(args, cfg, "experiment", "baseline"),
        update_interval_ns=update_interval_ns,
        powercap_root=powercap_root,
    )


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_probe_check(args, cfg) -> int:
    probe = create_probe(*_probe_settings(args, cfg))
    descriptor = probe.describe()
    print(f"backend: {descriptor.backend.value}")
    print(f"update interval: {descriptor.update_interval_ns} ns")
    reading = probe.read()
    for domain, counter in zip(descriptor.domains, reading.counters):
        print(
            f"domain {domain}: counter {counter} uJ, "
            f"range {descriptor.max_range_uj[domain]} uJ, read permission ok"
        )
    return EXIT_OK


def _cmd_list(args, cfg) -> int:
    for test in discover(_build_harness(args, cfg)):
        print(test)
    return EXIT_OK


def _cmd_run(args, cfg) -> int:
    config = _build_experiment_config(args, cfg)
    data_dir = _data_dir(args, cfg)
    for key, value in effective_config_items(config, data_dir=data_dir):
        print(f"config {key} = {value}")
    record = run_experiment(config, data_dir=data_dir, progress=print)
    print()
    request = ReportRequest(
        scope="revision",
        revisions=(record.revision_label,),
        fmt=ReportFormat.TERM,
        no_color=args.no_color,
        width=args.width,
    )
    print(render_head(record, request), end="")
    return EXIT_OK


def _parse_domains(text: str | None) -> tuple[EnergyDomain, ...] | None:
    if not text:
        return None
    return tuple(EnergyDomain.parse(part.strip()) for part in text.split(","))


def _export_report(args, cfg, **scope) -> int:
    """Render one report request built from ``scope``, the --evolution ids
    and the output flags; a bad flag value is a usage error."""
    try:
        request = ReportRequest(
            **scope,
            tests=_parse_selection(getattr(args, "evolution", None) or ""),
            domains=_parse_domains(args.domains),
            fmt=ReportFormat(args.format),
            output_path=Path(args.out) if args.out else None,
            no_color=args.no_color,
            width=args.width,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    text = export(Store(_data_dir(args, cfg)), request)
    if request.output_path is None:
        print(text, end="")
    else:
        log.info("wrote %s", request.output_path)
    return EXIT_OK


def _cmd_report(args, cfg) -> int:
    if args.evolution:
        return _export_report(args, cfg, scope="history", limit=args.limit)
    if args.revision:
        return _export_report(args, cfg, scope="revision", revisions=(args.revision,))
    raise _UsageError("report needs --revision or --evolution")


def _cmd_compare(args, cfg) -> int:
    revisions = (args.revision_a, args.revision_b)
    return _export_report(args, cfg, scope="compare", revisions=revisions)


def _cmd_baseline(args, cfg) -> int:
    probe = create_probe(*_probe_settings(args, cfg))
    print(
        f"calibrating idle baseline for {args.duration:.1f} s; "
        "keep the machine quiescent",
        file=sys.stderr,
    )
    profile = calibrate_baseline(probe, args.duration)
    doc = {
        "powers_w": {str(d): w for d, w in sorted(profile.powers_w.items(), key=lambda kv: str(kv[0]))},
        "duration_s": profile.duration_s,
        "calibrated_at": profile.calibrated_at,
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        write_document(Path(args.out), text)
        log.info("wrote %s", args.out)
    else:
        print(text, end="")
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="config file (key=value sections)")
    parser.add_argument("--data-dir", help="data directory (default .manai, env MANAI_DATA_DIR)")
    parser.add_argument("--no-color", action="store_true", help="plain terminal output")
    parser.add_argument("--width", type=int, default=None, help="terminal width override")


def _add_probe_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--probe", default=None, help="rapl | simulated")
    parser.add_argument("--scenario", help="scenario file for the simulated probe")
    parser.add_argument("--update-interval-ns", dest="update_interval_ns", default=None)


def _add_harness_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--harness", help="harness command line (program and args)")
    parser.add_argument("--list-args", dest="list_args", help="discovery-mode arguments")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    _add_probe_flags(parser)
    _add_harness_flags(parser)
    parser.add_argument(
        "--rate", default=None,
        help="ignored, with a warning: every test window is read at its edges",
    )
    parser.add_argument("--iterations", default=None, help="executions per test")
    parser.add_argument("--select", default=None, help="comma-separated test ids (default: all)")
    parser.add_argument("--revision", default=None, help="revision label (default: git head)")
    parser.add_argument("--baseline", default=None, help="off | calibrate:<secs> | fixed:<path>")
    parser.add_argument("--timeout", default=None, help="per-test timeout in seconds")


def _add_view_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--domains", default=None, help="comma-separated domain filter, e.g. package:0")
    parser.add_argument("--format", choices=[f.value for f in ReportFormat], default="term")
    parser.add_argument("--out", default=None, help="write the document to a file")


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--revision", default=None, help="summary of one stored revision")
    parser.add_argument("--evolution", default=None, help="comma-separated test ids for history view")
    parser.add_argument("--limit", type=int, default=None, help="most recent history points to keep")
    _add_view_flags(parser)


def _add_compare_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("revision_a")
    parser.add_argument("revision_b")
    _add_view_flags(parser)


def _add_baseline_flags(parser: argparse.ArgumentParser) -> None:
    _add_probe_flags(parser)
    parser.add_argument("--duration", type=float, default=10.0, help="calibration window in seconds")
    parser.add_argument("--out", default=None, help="write the profile as JSON")


# Every command: _COMMANDS[name] = (handler, help line, flag builder). The
# common flags come first for each.
_COMMANDS = {
    "probe-check": (_cmd_probe_check, "enumerate energy domains and check access", _add_probe_flags),
    "list": (_cmd_list, "discover tests declared by the harness", _add_harness_flags),
    "run": (_cmd_run, "execute an energy experiment", _add_run_flags),
    "report": (_cmd_report, "render stored results", _add_report_flags),
    "compare": (_cmd_compare, "compare two stored revisions", _add_compare_flags),
    "baseline": (_cmd_baseline, "calibrate idle power on a quiescent machine", _add_baseline_flags),
}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The arguments of ``manai <command> ...``, parsed by that command's
    parser alone; without a known command first, the command list prints
    its help or a usage error."""
    name = argv[0] if argv else None
    if name not in _COMMANDS:
        parser = _Parser(prog="manai", description="Per-test software energy profiler.")
        subparsers = parser.add_subparsers(dest="command", required=True)
        for command, (_, help_line, _) in _COMMANDS.items():
            subparsers.add_parser(command, help=help_line)
        parser.parse_args(argv)
        raise _UsageError(f"the command must come first, got {name!r}")
    parser = _Parser(prog=f"manai {name}")
    _add_common(parser)
    _COMMANDS[name][2](parser)
    parser.set_defaults(command=name)
    return parser.parse_args(argv[1:])


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        cfg = _load_config_file(args.config) if args.config else {}
        return _COMMANDS[args.command][0](args, cfg)
    except errors.UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except errors.EnvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENV
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - the contract demands a message, not a traceback
        log.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

