"""Command-line front end.

Subcommands: discover, evaluate, dsep, ampute, simulate, export-dot.
Exit codes: 0 success, 1 runtime/computation error, 2 usage/config error.
Every command is a pure function of (input files, flags, seed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import ecdemo
from .data import AmputationSpec, ampute, csv_line, forward_sample, read_csv, write_csv
from .discovery import (
    ALGORITHMS,
    SEARCHES,
    KnowledgeBase,
    SearchOptions,
    bootstrap_sem,
    evaluate,
    mean_sd,
)
from .errors import (
    ConfigError,
    MissDagError,
    checked_number,
    checked_strings,
    json_document,
    json_object,
    json_text,
)
from .estimation import ParameterSet
from .graphs import Dag, export_dot, find_active_path, graph_from_json, graph_to_json

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _diag(message: str, json_logs: bool) -> None:
    if json_logs:
        sys.stderr.write(json.dumps({"level": "error", "message": message},
                                    allow_nan=False) + "\n")
    else:
        sys.stderr.write(f"error: {message}\n")


def _resolve_seed(args, config=None):
    env = os.environ.get("MGD_SEED")
    if getattr(args, "seed", None) is not None:
        seed = int(args.seed)
    elif config is not None and "seed" in config:
        seed = checked_number(config["seed"], int, "config field 'seed'")
    elif env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"MGD_SEED must be int, got {env!r}") from None
    else:
        raise ConfigError("no seed given (flag --seed, config field 'seed', or MGD_SEED)")
    if seed < 0:
        raise ConfigError(f"the seed must be >= 0, got {seed}")
    return seed


def _fields(config: dict, **kinds) -> dict:
    """The fields named in ``kinds`` that the config sets, each checked to
    be of its kind. A field the config leaves out is not passed on, so the
    default of the function that takes it applies."""
    return {key: checked_number(config[key], kind, f"config field {key!r}")
            for key, kind in kinds.items() if key in config}


def _path(value, key: str) -> Path:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"config field {key!r} must be a path, got {value!r}")
    return Path(value)


def _input_file(path, what: str) -> Path:
    """An input file's path; a missing path, or one that is not a regular
    file (a directory, say), is a usage error."""
    p = Path(path)
    if not p.is_file():
        problem = "is not a regular file" if p.exists() else "not found"
        raise ConfigError(f"{what} {problem}: {p}")
    return p


def _read_text(path, what: str) -> str:
    """The text of a UTF-8 input file; a missing file or one that is not
    UTF-8 is a usage error."""
    p = _input_file(path, what)
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} is not UTF-8 text: {p}: {exc}") from None


# what discover or evaluate reads; each command takes a key only the other
# reads (threshold under evaluate, say), so one config serves both
CONFIG_KEYS = ("dataset", "dataset_n", "ampute_spec", "knowledge", "out", "seed", "algorithm",
               "algorithms", "B", "threshold", "held_out_fraction",
               *(f.name for f in dataclasses.fields(SearchOptions)))


def _load_config(path) -> dict:
    if path is None:
        raise ConfigError("missing required flag --config")
    return json_object(_read_text(path, "config file"), "config", CONFIG_KEYS)


def _load_dataset(config: dict, seed: int):
    ref = config.get("dataset")
    if ref is None:
        raise ConfigError("config field 'dataset' is required")
    if ref == "ec-demo":
        size = {"n": n for n in _fields(config, dataset_n=int).values()}
        d = ecdemo.ec_demo_dataset(seed=seed, **size)
    else:
        d = read_csv(_input_file(_path(ref, "dataset"), "config field 'dataset': file"))
    spec_path = config.get("ampute_spec")
    if spec_path is not None:
        d = ampute(d, AmputationSpec.from_json(_read_text(
            _path(spec_path, "ampute_spec"), "config field 'ampute_spec': file")))
    return d


def _load_knowledge(config: dict) -> KnowledgeBase:
    path = config.get("knowledge")
    if path is None:
        return KnowledgeBase()
    return KnowledgeBase.from_json(_read_text(
        _path(path, "knowledge"), "config field 'knowledge': file"))


def _out_dir(args, config: dict) -> Path:
    out = getattr(args, "out", None) or config.get("out")
    if out is None:
        raise ConfigError("no output directory (flag --out or config field 'out')")
    p = _path(out, "out")
    try:
        p.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"output directory is a file or lies under one: {p}") from None
    return p


def _out_file(path) -> Path:
    """An output file's path; one that names a directory is a usage error."""
    p = Path(path)
    if p.is_dir():
        raise ConfigError(f"output file is a directory: {p}")
    return p


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _dot(g: Dag) -> str:
    """The DOT text of ``g``, its vertices coloured by clinical role when it
    holds every variable of the bundled demo model that has one."""
    return export_dot(g, roles=ecdemo.EC_ROLES
                      if set(g.vertices) >= set(ecdemo.EC_ROLES) else None)


def _search_options(config: dict) -> SearchOptions:
    return SearchOptions(**{f.name: config[f.name]
                            for f in dataclasses.fields(SearchOptions) if f.name in config})


def _load_run(args):
    """The config, seed, search options, dataset, knowledge base and output
    directory of a ``discover`` or ``evaluate`` run."""
    config = _load_config(args.config)
    seed = _resolve_seed(args, config)
    return (config, seed, _search_options(config), _load_dataset(config, seed),
            _load_knowledge(config), _out_dir(args, config))


def cmd_discover(args) -> int:
    config, seed, opts, d, kb, out = _load_run(args)
    algorithm = config.get("algorithm")
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"config field 'algorithm' must be one of {ALGORITHMS}")
    trace_doc = {"algorithm": algorithm, "seed": seed}
    summary_doc = None
    if algorithm == "bootstrap-sem":
        g, summary = bootstrap_sem(
            d, kb, seed=seed, threads=args.threads or 1, **opts.sem_options(),
            **_fields(config, B=int, threshold=float, held_out_fraction=float))
        in_sample = [s.log_likelihood for s in summary.in_sample]
        out_of_sample = [s.log_likelihood for s in summary.out_of_sample]
        in_mean, in_sd = mean_sd(in_sample)
        out_mean, out_sd = mean_sd(out_of_sample)
        summary_doc = {
            "B": summary.replicates,
            "edge_frequency": {f"{p}->{c}": f
                               for (p, c), f in sorted(summary.edge_frequency.items())},
            "in_sample": in_sample, "out_of_sample": out_of_sample,
            "in_sample_mean": in_mean, "in_sample_sd": in_sd,
            "out_of_sample_mean": out_mean, "out_of_sample_sd": out_sd,
        }
        trace_doc["edges"] = sorted([list(e) for e in g.edges])
    else:
        found = SEARCHES[algorithm](d, kb, opts)
        g = found.graph
        trace_doc.update(dataclasses.asdict(found.trace))
        if found.report is not None:
            trace_doc["indicator_report"] = found.report
    # every text is built before the first file is written, so an artifact
    # that cannot be built (json_text refuses NaN) leaves no file behind
    files = {"graph.json": graph_to_json(g), "graph.dot": _dot(g),
             "trace.json": json_text(trace_doc)}
    if summary_doc is not None:
        files["summary.json"] = json_text(summary_doc)
    for name, text in files.items():
        _write(out / name, text)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config, seed, opts, d, kb, out = _load_run(args)
    algorithms = config.get("algorithms")
    if not isinstance(algorithms, list):
        raise ConfigError("config field 'algorithms' must be a list of algorithm names")
    report = evaluate(algorithms, d, kb, seed=seed, threads=args.threads or 1,
                      **dataclasses.asdict(opts),
                      **_fields(config, B=int, held_out_fraction=float))
    # report.json first: json_text refuses NaN before any file is written
    _write(out / "report.json", json_text(report))
    columns = ["ll_in", "ll_out", "ll_in_rescaled", "ll_out_rescaled"]
    lines = [csv_line(["algorithm", "replicate", *columns])]
    for row in report["replicates"]:
        lines.append(csv_line([row["algorithm"], str(row["replicate"]),
                               *(repr(row[c]) for c in columns)]))
    _write(out / "report.csv", "".join(line + "\n" for line in lines))
    return EXIT_OK


def _load_graph(ref: str) -> Dag:
    if ref in ecdemo.BUILTIN_GRAPHS:
        return ecdemo.BUILTIN_GRAPHS[ref]()
    return graph_from_json(_read_text(ref, "graph file"))


def _parse_dsep_query(query: str):
    """The sets X, Y and Z of a query ``X _||_ Y | Z`` whose sets list
    names by commas, or of a JSON query ``[[X...], [Y...], [Z...]]``, which
    can name any vertex."""
    if query.lstrip().startswith("["):
        doc = json_document(query, "dsep query")
        if not isinstance(doc, list) or len(doc) != 3:
            raise ConfigError("a JSON dsep query must be a list of three lists of names")
        x, y, z = (checked_strings(side, "a set of a JSON dsep query") for side in doc)
    elif "_||_" not in query:
        raise ConfigError("query must contain '_||_'")
    else:
        lhs, rest = query.split("_||_", 1)
        mid, _, cond = rest.partition("|")
        x, y, z = ([t.strip() for t in chunk.split(",") if t.strip()]
                   for chunk in (lhs, mid, cond))
    if not x or not y:
        raise ConfigError("query needs nonempty sets on both sides of '_||_'")
    return x, y, z


def cmd_dsep(args) -> int:
    g = _load_graph(args.graph)
    x, y, z = _parse_dsep_query(args.query)
    for v in x + y + z:
        if v not in g.vertices:
            raise ConfigError(f"unknown vertex {v!r}")
    path = find_active_path(g, x, y, z)
    if path is None:
        print("d-separated")
    else:
        print("d-connected (active path: " + " - ".join(path) + ")")
    return EXIT_OK


def cmd_ampute(args) -> int:
    data_path = _input_file(args.data, "dataset file")
    spec_text = _read_text(args.spec, "amputation spec")
    out = _out_file(args.out)
    d = read_csv(data_path)
    write_csv(ampute(d, AmputationSpec.from_json(spec_text)), out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    out = _out_file(args.out)
    if args.model == "ec-demo":
        g, params = ecdemo.ec_ground_truth()
    else:
        if not args.params:
            raise ConfigError("--params is required unless model is 'ec-demo'")
        g = _load_graph(args.model)
        params = ParameterSet.from_json(_read_text(args.params, "parameter file"))
    write_csv(forward_sample(g, params, args.n, seed), out)
    return EXIT_OK


def cmd_export_dot(args) -> int:
    g = _load_graph(args.graph)
    out = _out_file(args.out) if args.out else None
    text = _dot(g)
    if out is not None:
        _write(out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ConfigError, so that a bad flag
    or a missing argument prints one diagnostic line, not the usage text.
    Flags must be spelt out in full (the command parsers are of this class
    too): ``main`` picks the diagnostic format by finding ``--json-logs``
    in the arguments, so ``--json`` must not be read as that flag."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(" ".join(f"{self.prog}: {message}".splitlines()))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="missdag",
        description="Causal discovery for categorical data with missing values")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the flags of every command
    common.add_argument("--json-logs", action="store_true")

    for name, func, text in (("discover", cmd_discover, "run one discovery algorithm"),
                             ("evaluate", cmd_evaluate, "in/out-of-sample LL benchmark")):
        p = sub.add_parser(name, help=text, parents=[common])
        p.add_argument("--config", required=False)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=os.cpu_count())
        p.set_defaults(func=func)

    p = sub.add_parser("dsep", help="d-separation query on a graph file", parents=[common])
    p.add_argument("graph", help="graph.json path or builtin (ec-mnar, ec-mar)")
    p.add_argument("query", help="e.g. 'LNM _||_ Radiotherapy |', or as JSON "
                   "'[[\"LNM\"], [\"Radiotherapy\"], []]'")
    p.set_defaults(func=cmd_dsep)

    p = sub.add_parser("ampute", help="inject missing values into a CSV", parents=[common])
    p.add_argument("--data", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ampute)

    p = sub.add_parser("simulate", help="forward-sample a model to CSV", parents=[common])
    p.add_argument("model", help="'ec-demo' or a graph.json path")
    p.add_argument("--params", default=None, help="ParameterSet JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("export-dot", help="graph.json to DOT text", parents=[common])
    p.add_argument("graph")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    json_logs = "--json-logs" in argv
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:  # --help
        return EXIT_OK
    except ConfigError as exc:
        _diag(str(exc), json_logs)
        return EXIT_USAGE
    except MissDagError as exc:
        _diag(f"{type(exc).__name__}: {exc}", json_logs)
        return EXIT_RUNTIME
    except (MemoryError, OSError) as exc:
        # numpy's MemoryError says how much it failed to allocate; a bare one
        # says nothing, so its class name stands in
        _diag(str(exc) or type(exc).__name__, json_logs)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
