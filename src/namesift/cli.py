"""Command line interface.

Subcommands::

    namesift validate ROOT     check corpus integrity, report diagnostics
    namesift classify ROOT     run one model configuration, write assignments
    namesift cluster ROOT      run clustering baselines, report purity/NMI
    namesift grid ROOT         run the model x noise grid (+ baselines)
    namesift report GRID_JSON  pivot a saved grid into a model x noise table

Configuration precedence: command line flags override ``NAMESIFT_*``
environment variables, which override the ``--config`` JSON file, which
overrides built-in defaults.  Exit codes: 0 success, 1 usage or
configuration error, 2 corpus integrity failure, 3 partial task failures
(some tasks were skipped with warnings).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path
from typing import Sequence

from .corpus import CorpusFormatError, CorpusIntegrityError, tsv_cell
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
from .features import NOISE_MODES, ConfigError, FeatureConfig
from .models import MODELS

__all__ = ["main"]

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


# Settings resolvable from flag, environment, or config file.  Each entry:
# attribute name -> (config key, caster).
_SETTINGS: dict[str, tuple[str, object]] = {
    "model": ("model", str),
    "noise": ("noise", str),
    "models": ("models", "list"),
    "noise_modes": ("noise_modes", "list"),
    "idf_numerator": ("idf_numerator", str),
    "log_base": ("log_base", str),
    "intersection_semantics": ("intersection_semantics", str),
    "alpha": ("alpha", float),
    "jm_lambda": ("lambda", float),
    "laplace_denominator": ("laplace_denominator", str),
    "format": ("format", str),
    "reps": ("reps", int),
    "strip_html": ("strip_html", bool),
    "stopwords": ("stopwords", str),
}

# Built-in defaults are the RunSpec (and so the ModelConfig/FeatureConfig)
# field defaults; only the output format is the CLI's own.
_DEFAULTS = {
    **{attr: getattr(RunSpec, attr) for attr in _SETTINGS if hasattr(RunSpec, attr)},
    "noise": FeatureConfig.noise,
    "strip_html": RunSpec.strip_markup,
    "format": "tsv",
}


def _cast(raw, caster, key: str):
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
    try:
        return caster(raw)
    except (TypeError, ValueError):
        raise _UsageError(f"{key} expects a {caster.__name__}, got {raw!r}") from None


def _resolve_settings(args: argparse.Namespace) -> dict:
    """Apply the flag > environment > file > default precedence."""
    file_config: dict = {}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        try:
            file_config = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise _UsageError(f"config file {config_path} does not exist") from None
        except json.JSONDecodeError as exc:
            raise _UsageError(f"config file {config_path} is not valid JSON ({exc})") from None
        if not isinstance(file_config, dict):
            raise _UsageError(f"config file {config_path} must hold a JSON object")

    settings = dict(_DEFAULTS)
    for attr, (key, caster) in _SETTINGS.items():
        value = getattr(args, attr, None)
        if value is not None and caster == "list":
            value = _cast(value, caster, key)
        if value is None:
            env = os.environ.get(f"NAMESIFT_{key.upper()}")
            if env is not None:
                value = _cast(env, caster, key)
            elif key in file_config and file_config[key] is not None:
                value = _cast(file_config[key], caster, key)
        if value is not None:
            settings[attr] = value
    return settings


def _load_stopwords(settings: dict) -> frozenset[str] | None:
    path = settings.get("stopwords")
    if not path:
        return None
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        raise _UsageError(f"stopword file {path} does not exist") from None
    words = {line.strip().lower() for line in lines if line.strip() and not line.startswith("#")}
    return frozenset(words)


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _warn_skipped(skipped) -> None:
    for directory, reason in skipped:
        print(f"warning: skipped {directory}: {reason}", file=sys.stderr)


def _build_run_spec(args, settings, *, models, noise_modes, hac=False, km=False) -> RunSpec:
    return RunSpec(
        corpus_root=Path(args.root),
        tasks=_comma_list(args.tasks) if getattr(args, "tasks", None) else None,
        models=models,
        noise_modes=noise_modes,
        hac=hac,
        kmeans=km,
        reps=settings["reps"],
        idf_numerator=settings["idf_numerator"],
        log_base=settings["log_base"],
        intersection_semantics=settings["intersection_semantics"],
        alpha=settings["alpha"],
        jm_lambda=settings["jm_lambda"],
        laplace_denominator=settings["laplace_denominator"],
        strip_markup=settings["strip_html"],
        stopwords=_load_stopwords(settings),
    )


def _exit_code(result: GridResult) -> int:
    if not result.task_names:
        print("error: no loadable tasks in corpus", file=sys.stderr)
        return 2
    return 3 if result.skipped else 0


def _emit_reports(result: GridResult, settings, output: str | None, stem: str) -> None:
    if output is None:
        if settings["format"] == "json":
            sys.stdout.write(json.dumps(grid_json_dict(result), indent=2) + "\n")
        else:
            sys.stdout.write(grid_tsv(result.reports))
        return
    outdir = Path(output)
    _write(outdir / f"{stem}.tsv", grid_tsv(result.reports))
    _write(outdir / f"{stem}.json", json.dumps(grid_json_dict(result), indent=2) + "\n")


def cmd_validate(args, settings) -> int:
    results = validate_corpus(
        args.root,
        strip_markup=settings["strip_html"],
        stopwords=_load_stopwords(settings),
    )
    if settings["format"] == "json":
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
    if getattr(args, "output", None):
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
    spec = _build_run_spec(args, settings, models=(model,), noise_modes=(settings["noise"],))
    result = run_grid(spec)
    _warn_skipped(result.skipped)
    if result.task_names:
        assignments = result.assignments[(model, settings["noise"])]
        floored = sum(a.floored for a in assignments.values())
        if floored:
            print(f"warning: {floored} probabilities were floored to stay positive", file=sys.stderr)
        if args.output:
            outdir = Path(args.output)
            for task_name in sorted(assignments):
                assignment = assignments[task_name]
                _write(outdir / f"{_safe_name(task_name)}.assignment.tsv", assignment.to_tsv())
                if args.scores:
                    scores = json.dumps(assignment.scores_dict(), indent=2) + "\n"
                    _write(outdir / f"{_safe_name(task_name)}.scores.json", scores)
        _emit_reports(result, settings, args.output, "report")
    return _exit_code(result)


def cmd_cluster(args, settings) -> int:
    methods = ("hac_complete", "kmeans") if args.method == "both" else (args.method,)
    spec = _build_run_spec(
        args,
        settings,
        models=(),
        noise_modes=(),
        hac="hac_complete" in methods,
        km="kmeans" in methods,
    )
    result = run_grid(spec)
    _warn_skipped(result.skipped)
    if result.task_names:
        if args.output:
            for method in methods:
                for task_name, clusterings in result.clusterings[method].items():
                    payload = {"task": task_name, "method": method, "runs": [c.to_dict() for c in clusterings]}
                    _write(
                        Path(args.output) / f"{_safe_name(task_name)}.{method}.json",
                        json.dumps(payload, indent=2) + "\n",
                    )
        _emit_reports(result, settings, args.output, "clusters")
    return _exit_code(result)


def cmd_grid(args, settings) -> int:
    models = settings["models"]
    if models == ("all",):
        models = MODELS
    noise_modes = settings["noise_modes"]
    if noise_modes == ("all",):
        noise_modes = NOISE_MODES
    for model in models:
        if model not in MODELS:
            raise _UsageError(f"unknown model {model!r}; choose from {', '.join(MODELS)}")
    for noise in noise_modes:
        if noise not in NOISE_MODES:
            raise _UsageError(f"unknown noise mode {noise!r}; choose from {', '.join(NOISE_MODES)}")
    spec = _build_run_spec(
        args, settings, models=models, noise_modes=noise_modes, hac=args.baselines, km=args.baselines
    )
    result = run_grid(spec)
    _warn_skipped(result.skipped)
    if result.task_names:
        _emit_reports(result, settings, args.output, "grid")
        if args.output:
            _write(Path(args.output) / "pivot.tsv", pivot_tsv(result.reports))
    return _exit_code(result)


def cmd_report(args, settings) -> int:
    try:
        data = json.loads(Path(args.grid_json).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise _UsageError(f"grid file {args.grid_json} does not exist") from None
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{args.grid_json} is not valid JSON ({exc})") from None
    reports = []
    for entry in data.get("reports", []):
        reports.append(
            EvalReport(
                model=entry["model"],
                noise=entry["noise"] or "",
                per_task={name: TaskMetrics(**row) for name, row in entry["per_task"].items()},
                aggregate=TaskMetrics(**entry["aggregate"]),
                config=entry.get("config", {}),
            )
        )
    if not reports:
        raise _UsageError(f"{args.grid_json} holds no reports")
    sys.stdout.write(pivot_tsv(reports, metric=args.metric))
    return 0


def _add_config_flags(p: argparse.ArgumentParser, *, model_params: bool = True) -> None:
    p.add_argument("--config", metavar="FILE", help="JSON file with configuration defaults")
    p.add_argument("--idf-numerator", choices=("corpus", "paper"), dest="idf_numerator")
    p.add_argument("--log-base", choices=("e", "2", "10"), dest="log_base")
    p.add_argument("--intersection-semantics", choices=("exists", "forall"), dest="intersection_semantics")
    if model_params:
        p.add_argument("--alpha", type=float, help="additive smoothing weight (Bernoulli NB)")
        p.add_argument("--lambda", type=float, dest="jm_lambda", help="background mixture weight (multinomial NB)")
        p.add_argument("--laplace-denominator", choices=("paper", "per_feature"), dest="laplace_denominator")
    p.add_argument("--format", choices=("tsv", "json"))
    p.add_argument("--strip-html", action="store_const", const=True, dest="strip_html")
    p.add_argument("--stopwords", metavar="FILE", help="newline-separated stopword list")
    p.add_argument("--tasks", help="comma-separated task name filter")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="namesift", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check corpus integrity")
    p.add_argument("root")
    p.add_argument("--output", metavar="FILE")
    _add_config_flags(p, model_params=False)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("classify", help="assign documents under one configuration")
    p.add_argument("root")
    p.add_argument("--model", choices=MODELS)
    p.add_argument("--noise", choices=NOISE_MODES)
    p.add_argument("--output", metavar="DIR")
    p.add_argument("--scores", action="store_true", help="also write per-task score matrices")
    _add_config_flags(p)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("cluster", help="run clustering baselines")
    p.add_argument("root")
    p.add_argument("--method", choices=("hac_complete", "kmeans", "both"), default="both")
    p.add_argument("--reps", type=int, help=f"K-Means repetitions (default {RunSpec.reps})")
    p.add_argument("--output", metavar="DIR")
    _add_config_flags(p, model_params=False)
    p.set_defaults(handler=cmd_cluster)

    p = sub.add_parser("grid", help="run the model x noise configuration grid")
    p.add_argument("root")
    p.add_argument("--models", help="comma-separated models, or 'all'")
    p.add_argument("--noise-modes", dest="noise_modes", help="comma-separated noise modes, or 'all'")
    p.add_argument("--baselines", action="store_true", help="also run HAC and K-Means")
    p.add_argument("--reps", type=int)
    p.add_argument("--output", metavar="DIR")
    _add_config_flags(p)
    p.set_defaults(handler=cmd_grid)

    p = sub.add_parser("report", help="pivot a saved grid JSON")
    p.add_argument("grid_json")
    p.add_argument("--metric", choices=METRIC_COLUMNS, default="f1_bar")
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        settings = _resolve_settings(args)
        return args.handler(args, settings)
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
