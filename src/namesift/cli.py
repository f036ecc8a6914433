"""Command line interface.

Subcommands::

    namesift validate ROOT     check corpus integrity, report diagnostics
    namesift classify ROOT     run one model configuration, write assignments
    namesift cluster ROOT      run clustering baselines, report purity/NMI
    namesift grid ROOT         run the model x noise grid (+ baselines)
    namesift report GRID_JSON  pivot a saved grid into a model x noise table

A subcommand takes flags for, resolves and checks only the settings its
run reads, and checks them before any task loads.  Precedence: command
line flags override ``NAMESIFT_*`` environment variables, which override
the ``--config`` JSON file, which overrides built-in defaults.  Exit
codes: 0 success, 1 usage or configuration error, 2 corpus integrity
failure, 3 partial task failures (some tasks were skipped with warnings).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import fields
from pathlib import Path
from typing import Sequence

from .baselines import BASELINES
from .corpus import CorpusFormatError, CorpusIntegrityError, _lines, _parse_json, _read_regular, tokenize, tsv_cell
from .evaluation import EvalReport, METRIC_COLUMNS, TaskMetrics
from .experiments import (
    GridResult,
    RunSpec,
    grid_json_dict,
    grid_tsv,
    pivot_tsv,
    run_grid,
    task_clusterings,  # noqa: F401  (kept importable here: perfbench's tracer wraps it in this module)
    validate_corpus,
)
from .features import IDF_NUMERATORS, INTERSECTION_SEMANTICS, LOG_BASES, NOISE_MODES, ConfigError, FeatureConfig
from .models import LAPLACE_DENOMINATORS, MODELS

__all__ = ["main"]

_FORMATS = ("tsv", "json")
_TRUTHY = ("1", "true", "yes", "on")
_FALSY = ("0", "false", "no", "off")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the documented contract
    # reserves 2 for corpus problems, so route through our own error.
    def error(self, message):
        raise _UsageError(message)


def _comma_list(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


_RUNS = ("classify", "cluster", "grid")
_MODEL_RUNS = ("classify", "grid")
_ALL = ("validate", *_RUNS)

# The one declaration of each setting a subcommand resolves from flag,
# environment or config file: attribute (the RunSpec field name, where the
# RunSpec has one) -> (config key, caster, subcommands whose run reads it,
# add_argument options).  The flag is ``--`` plus the key with ``-`` for
# ``_``, the environment variable ``NAMESIFT_`` plus the key in upper case.
_SETTINGS: dict[str, tuple[str, object, tuple[str, ...], dict]] = {
    "model": ("model", str, ("classify",), dict(choices=MODELS)),
    "noise": ("noise", str, ("classify",), dict(choices=NOISE_MODES)),
    "models": ("models", "list", ("grid",), dict(help="comma-separated models, or 'all'")),
    "noise_modes": ("noise_modes", "list", ("grid",), dict(help="comma-separated noise modes, or 'all'")),
    "idf_numerator": ("idf_numerator", str, _RUNS, dict(choices=IDF_NUMERATORS)),
    "log_base": ("log_base", str, _RUNS, dict(choices=LOG_BASES)),
    "intersection_semantics": ("intersection_semantics", str, _MODEL_RUNS, dict(choices=INTERSECTION_SEMANTICS)),
    "alpha": ("alpha", float, _MODEL_RUNS, dict(help="additive smoothing weight (Bernoulli NB)")),
    "jm_lambda": ("lambda", float, _MODEL_RUNS, dict(help="background mixture weight (multinomial NB)")),
    "laplace_denominator": ("laplace_denominator", str, _MODEL_RUNS, dict(choices=LAPLACE_DENOMINATORS)),
    "format": ("format", _FORMATS, _ALL, dict(choices=_FORMATS)),
    "reps": ("reps", int, ("cluster", "grid"), dict(help=f"K-Means repetitions (default {RunSpec.reps})")),
    "strip_markup": ("strip_html", bool, _ALL, dict(action="store_const", const=True)),
    "stopwords": ("stopwords", str, _ALL, dict(metavar="FILE", help="newline-separated stopword list")),
}

_RUN_SPEC_FIELDS = frozenset(f.name for f in fields(RunSpec) if f.init)


def _cast(raw, caster, key: str):
    if isinstance(caster, tuple):  # the allowed values
        if str(raw) in caster:
            return str(raw)
        raise _UsageError(f"{key} must be one of {', '.join(caster)}, got {str(raw)!r}")
    if caster == "list":
        if isinstance(raw, str):
            return _comma_list(raw)
        if isinstance(raw, (list, tuple)):
            return tuple(str(v) for v in raw)
        raise _UsageError(f"{key} must be a comma-separated string or list, got {raw!r}")
    if caster is bool:
        if isinstance(raw, bool):
            return raw
        text = str(raw).strip().lower()
        if text in _TRUTHY:
            return True
        if text in _FALSY:
            return False
        raise _UsageError(f"{key} must be a boolean, got {raw!r}")
    if caster is str:
        return str(raw)
    # A number is text (an environment value, or a JSON string) or a JSON
    # number: an integer for an integer setting, and never a boolean.
    if isinstance(raw, str) or type(raw) is int or (type(raw) is float and caster is float):
        try:
            return caster(raw)
        except (ValueError, OverflowError):  # not a number; an integer too large for a float
            pass
    expected = "an integer" if caster is int else "a number"
    raise _UsageError(f"{key} expects {expected}, got {raw!r}")


def _read_text(path: str, what: str) -> str:
    try:
        return _read_regular(path)
    except FileNotFoundError:
        raise _UsageError(f"{what} {path} does not exist") from None
    except (OSError, ValueError) as exc:  # not UTF-8, not a regular file, no permission, a NUL byte
        raise _UsageError(f"cannot read {what} {path} ({exc})") from None


def _read_json(path: str, what: str):
    try:
        return _parse_json(_read_text(path, what), f"{what} {path}")
    except CorpusFormatError as exc:
        raise _UsageError(str(exc)) from None


def _resolve_settings(args: argparse.Namespace) -> dict:
    """The settings ``args.command`` reads, by flag > environment > file precedence.

    A setting given nowhere is left out, so its reader's default holds; a
    stopword file is read into its word set.
    """
    file_config: dict = {}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        file_config = _read_json(config_path, "config file")
        if not isinstance(file_config, dict):
            raise _UsageError(f"config file {config_path} must hold a JSON object")

    settings = {}
    for attr, (key, caster, commands, _) in _SETTINGS.items():
        if args.command not in commands:
            continue
        value = getattr(args, attr)
        if value is None:
            value = os.environ.get(f"NAMESIFT_{key.upper()}")
        if value is None:
            value = file_config.get(key)
        if value is not None:
            settings[attr] = _cast(value, caster, key)
    if "stopwords" in settings:
        settings["stopwords"] = _load_stopwords(settings["stopwords"])
    return settings


def _load_stopwords(path: str) -> frozenset[str] | None:
    if not path:
        return None
    words = set()
    for lineno, line in enumerate(_lines(_read_text(path, "stopword file")), start=1):
        word = line.strip().lower()
        if not word or word.startswith("#"):
            continue
        # Stopwords are matched against tokens, so any other word drops nothing.
        if tokenize(word) != [word]:
            raise _UsageError(f"stopword file {path} line {lineno}: {word!r} is not a single token")
        words.add(word)
    return frozenset(words)


def _task_stems(task_names, output: str, suffix: str) -> dict[str, str]:
    """Each task's file name less ``suffix``; two tasks that would share a file are refused.

    A task's file name is its name with each run of characters outside ``A-Za-z0-9._-`` made one ``_``;
    callers join it to ``output`` with its suffix, so a task named ``.`` or ``..`` writes inside it too.
    """
    owners: dict[str, str] = {}
    for name in sorted(task_names):
        stem = re.sub(r"[^A-Za-z0-9._-]+", "_", name)
        if stem in owners:
            raise _UsageError(f"tasks {owners[stem]!r} and {name!r} would both write {Path(output, stem + suffix)}")
        owners[stem] = name
    return {name: stem for stem, name in owners.items()}


def _write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:  # a file where a directory belongs, or the reverse; no permission
        raise _UsageError(f"cannot write {path} ({exc})") from None


def _run(spec: RunSpec, output: str | None) -> GridResult:
    """Run ``spec`` and warn of each skipped task.

    The ``output`` directory is created first, before any task loads, so a blocked path fails at once.
    """
    if output is not None:
        try:
            Path(output).mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file where a directory belongs; no permission
            raise _UsageError(f"cannot write {output} ({exc})") from None
    result = run_grid(spec)
    for directory, reason in result.skipped:
        print(f"warning: skipped {directory}: {reason}", file=sys.stderr)
    return result


def _build_run_spec(args, settings, **overrides) -> RunSpec:
    """The RunSpec of the settings named by RunSpec field, then ``overrides``; checked at construction."""
    given = {attr: value for attr, value in settings.items() if attr in _RUN_SPEC_FIELDS}
    tasks = None if args.tasks is None else _comma_list(args.tasks)
    return RunSpec(**{**given, "corpus_root": Path(args.root), "tasks": tasks, **overrides})


def _exit_code(result: GridResult) -> int:
    if not result.task_names:
        print("error: no loadable tasks in corpus", file=sys.stderr)
        return 2
    return 3 if result.skipped else 0


def _emit_reports(result: GridResult, settings, output: str | None, stem: str) -> None:
    if output is None:
        if settings.get("format") == "json":
            sys.stdout.write(json.dumps(grid_json_dict(result), indent=2) + "\n")
        else:
            sys.stdout.write(grid_tsv(result.reports))
        return
    outdir = Path(output)
    _write(outdir / f"{stem}.tsv", grid_tsv(result.reports))
    _write(outdir / f"{stem}.json", json.dumps(grid_json_dict(result), indent=2) + "\n")


def cmd_validate(args, settings) -> int:
    results = validate_corpus(
        args.root, strip_markup=settings.get("strip_markup", False), stopwords=settings.get("stopwords")
    )
    if settings.get("format") == "json":
        payload = {
            "ok": all(r.ok for r in results),
            "tasks": [
                {"directory": r.directory, "name": r.name, "ok": r.ok, "problems": r.problems}
                for r in results
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["directory\tname\tstatus\tproblems"]
        for r in results:
            status = "ok" if r.ok else "fail"
            cells = [tsv_cell(r.directory), tsv_cell(r.name or ""), status, tsv_cell("; ".join(r.problems))]
            lines.append("\t".join(cells))
        text = "\n".join(lines) + "\n"
    if args.output:
        _write(Path(args.output), text)
    else:
        sys.stdout.write(text)
    if not results:
        print("error: no task directories found", file=sys.stderr)
        return 2
    return 0 if all(r.ok for r in results) else 2


def cmd_classify(args, settings) -> int:
    model = settings.get("model")
    if not model:
        raise _UsageError("classify needs a model (--model, NAMESIFT_MODEL, or config file)")
    if args.scores and not args.output:
        raise _UsageError("--scores requires --output")
    noise = settings.get("noise", FeatureConfig.noise)
    result = _run(_build_run_spec(args, settings, models=(model,), noise_modes=(noise,)), args.output)
    if result.task_names:
        assignments = result.assignments[(model, noise)]
        floored = sum(a.floored for a in assignments.values())
        if floored:
            print(f"warning: {floored} probabilities were floored to stay positive", file=sys.stderr)
        if args.output:
            for task_name, stem in _task_stems(assignments, args.output, ".assignment.tsv").items():
                assignment = assignments[task_name]
                _write(Path(args.output, f"{stem}.assignment.tsv"), assignment.to_tsv())
                if args.scores:
                    scores = {doc_id: dict(row) for doc_id, row in assignment.scores.items()}
                    _write(Path(args.output, f"{stem}.scores.json"), json.dumps(scores, indent=2) + "\n")
        _emit_reports(result, settings, args.output, "report")
    return _exit_code(result)


def cmd_cluster(args, settings) -> int:
    methods = BASELINES if args.method == "both" else (args.method,)
    spec = _build_run_spec(args, settings, models=(), hac="hac_complete" in methods, kmeans="kmeans" in methods)
    result = _run(spec, args.output)
    if result.task_names:
        if args.output:
            stems = _task_stems(result.clusterings[methods[0]], args.output, f".{methods[0]}.json")
            for method in methods:
                for task_name, clusterings in result.clusterings[method].items():
                    payload = {"task": task_name, "method": method, "runs": [c.to_dict() for c in clusterings]}
                    _write(Path(args.output, f"{stems[task_name]}.{method}.json"), json.dumps(payload, indent=2) + "\n")
        _emit_reports(result, settings, args.output, "clusters")
    return _exit_code(result)


def cmd_grid(args, settings) -> int:
    for attr, every in (("models", MODELS), ("noise_modes", NOISE_MODES)):
        if settings.get(attr) == ("all",):
            settings[attr] = every
    result = _run(_build_run_spec(args, settings, hac=args.baselines, kmeans=args.baselines), args.output)
    if result.task_names:
        _emit_reports(result, settings, args.output, "grid")
        if args.output:
            _write(Path(args.output) / "pivot.tsv", pivot_tsv(result.reports))
    return _exit_code(result)


def _metrics(row) -> TaskMetrics:
    if not isinstance(row, dict) or not all(v is None or type(v) in (int, float) and math.isfinite(v) for v in row.values()):
        raise TypeError("metrics must map metric names to finite numbers or null")
    return TaskMetrics(**{name: None if v is None else float(v) for name, v in row.items()})


def cmd_report(args, settings) -> int:
    path = args.grid_json
    data = _read_json(path, "grid file")
    entries = data.get("reports", []) if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise _UsageError(f"grid file {path} must hold a JSON object with a list of reports")
    reports = []
    for i, entry in enumerate(entries):
        try:
            model, noise = entry["model"], entry["noise"] or ""
            if not (isinstance(model, str) and isinstance(noise, str)):
                raise TypeError("model and noise must be strings")
            per_task = {name: _metrics(row) for name, row in entry["per_task"].items()}
            reports.append(EvalReport(model, noise, per_task, _metrics(entry["aggregate"]), entry.get("config", {})))
        except (KeyError, AttributeError, TypeError, OverflowError) as exc:
            raise _UsageError(f"grid file {path}: report {i} is malformed ({exc!r})") from None
    if not reports:
        raise _UsageError(f"grid file {path} holds no reports")
    sys.stdout.write(pivot_tsv(reports, metric=args.metric))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="namesift", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check corpus integrity")
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("classify", help="assign documents under one configuration")
    p.add_argument("--output", metavar="DIR")
    p.add_argument("--scores", action="store_true", help="also write per-task score matrices")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("cluster", help="run clustering baselines")
    p.add_argument("--method", choices=(*BASELINES, "both"), default="both")
    p.add_argument("--output", metavar="DIR")
    p.set_defaults(handler=cmd_cluster)

    p = sub.add_parser("grid", help="run the model x noise configuration grid")
    p.add_argument("--baselines", action="store_true", help="also run HAC and K-Means")
    p.add_argument("--output", metavar="DIR")
    p.set_defaults(handler=cmd_grid)

    p = sub.add_parser("report", help="pivot a saved grid JSON")
    p.add_argument("grid_json")
    p.add_argument("--metric", choices=METRIC_COLUMNS, default="f1_bar")
    p.set_defaults(handler=cmd_report)

    for command in _ALL:
        p = sub.choices[command]
        p.add_argument("root")
        if command in _RUNS:
            p.add_argument("--tasks", help="comma-separated task name filter")
        p.add_argument("--config", metavar="FILE", help="JSON file with configuration defaults")
        for attr, (key, _, commands, options) in _SETTINGS.items():
            if command in commands:
                p.add_argument(f"--{key.replace('_', '-')}", dest=attr, **options)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if getattr(args, "output", None) == "":
            raise _UsageError("--output must name a path, not an empty string")
        return args.handler(args, _resolve_settings(args))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (CorpusFormatError, CorpusIntegrityError) as exc:
        print(f"corpus error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
