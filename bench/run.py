"""tinytt benchmark: time to a verdict on four workloads, and a traced
per-layer breakdown of the same passes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S] [--out FILE]

Run it from the repository root. The first form measures one workload;
with `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics, with `--trace 1` the per-layer ones. The second form
runs every workload both ways, prints both tables and can write the whole
record as JSON.

One caller drives `tinytt.cli.run` in this process, in a closed loop: a
pass runs every input of the workload once, and the next pass starts when
it ends. Every run's verdict (exit code, diagnostic code and line, stdout,
and for E030 the step count) is compared with one known in advance; a
wrong verdict or a Python traceback is counted, not fatal. Set-up time and
peak memory come from child interpreters. A traced run also writes the
spans of its last traced pass to bench/out/spans-WORKLOAD.jsonl.

Times are reported in reference-host seconds. A fixed pure-Python loop
runs before the first pass and after every pass, and each pass time is
multiplied by CALIB_REF_S over the mean of the two loop times around it.
On a host whose CPUs are shared, Python's speed can drift by 1.7x for tens
of seconds; the loop drifts with the program, so the scaled times stay
comparable between runs. The raw wall times are printed beside them.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from spans import TraceError, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

TAIL_BEYOND = 10           # samples a tail percentile must leave above it
MIN_PASSES = TAIL_BEYOND + 1
MIN_TRACED_PASSES = 3
# A reference-host second is a wall second on a host where CALIB_LOOPS
# turns of the calibration loop take CALIB_REF_S.
CALIB_LOOPS = 400_000
CALIB_REF_S = 0.04
SETUP_IMPORTS = 11
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "pass_s_p50": "s", "pass_s_tail": "s", "items_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "surface.lex_s": "s", "surface.tokens": "count", "surface.tokens_per_s": "1/s",
    "surface.parse_s": "s", "surface.items": "count", "surface.resolve_s": "s",
    "cli.self_s": "s",
    "kernel.decl_s": "s", "kernel.pragma_s": "s", "kernel.fuel_steps": "count",
    "semantics.eval_s": "s", "semantics.eval_calls": "count",
    "semantics.fuel_steps": "count", "semantics.steps_per_s": "1/s",
    "semantics.globals_forced": "count", "semantics.forced_ratio": "ratio",
    "semantics.convert_s": "s", "semantics.convert_calls": "count",
    "semantics.quote_s": "s", "semantics.nf_nodes": "count",
    "semantics.nf_nodes_per_fuel": "ratio", "pretty.s": "s", "pretty.chars": "count",
    "diagnostics.s": "s", "diagnostics.count": "count",
    "semantics.fuel_exhausted": "count",
    "trace.overhead": "ratio", "trace.pass_s": "s", "host.calib_s": "s",
}

_IMPORT_CHILD = "import tinytt.cli"
# VmHWM belongs to the child's own program image; ru_maxrss would also
# count the parent's pages that the child held between fork and exec.
_RSS_CHILD = """\
import io, json, sys
from tinytt import cli
for argv in json.loads(sys.argv[1]):
    cli.run(cli.parse_flags(argv), io.StringIO(), io.StringIO())
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


class Tally:
    """Runs attempted and wrong verdicts, with the first few explained."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, case: workloads.Case, outcome) -> int:
        """Check one run's verdict; return the items it brought to a verdict."""
        self.attempted += 1
        code, out, err = outcome
        if isinstance(code, str):
            problem = "traceback: " + code.strip().splitlines()[-1]
        else:
            problem = workloads.verdict_error(case, code, out, err)
        if problem is None:
            return case.items
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{case.path} {' '.join(case.flags)}: {problem}")
        return 0


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs Python now."""
    start = perf_counter()
    total = 0
    for i in range(CALIB_LOOPS):
        total += i * i % 7
    return perf_counter() - start


def bracketed(measure_once, seconds: float, minimum: int):
    """Call `measure_once()` for `seconds` and at least `minimum` times,
    with a calibration before the first call and after each one.

    Returns each call's result; for each call, the factor that turns wall
    seconds measured in it into reference-host seconds (CALIB_REF_S over
    the mean of the two calibrations around it); and the calibrations.
    """
    calib = [calibrate()]
    results, scales = [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(results) < minimum:
        results.append(measure_once())
        calib.append(calibrate())
        scales.append(2 * CALIB_REF_S / (calib[-2] + calib[-1]))
    return results, scales, calib


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _child(code: str, *args: str) -> str:
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"child interpreter failed: {done.stderr.strip()}")
    return done.stdout


def setup_seconds() -> tuple[list[float], list[float]]:
    """Wall times for a fresh interpreter to import tinytt.cli, raw and scaled."""
    _child(_IMPORT_CHILD)  # compiles bytecode on a fresh checkout

    def import_once() -> float:
        start = perf_counter()
        _child(_IMPORT_CHILD)
        return perf_counter() - start
    raw, scales, _ = bracketed(import_once, 0, SETUP_IMPORTS)
    return raw, [t * k for t, k in zip(raw, scales)]


def peak_rss_mib(cases: list[workloads.Case]) -> float:
    """Peak resident memory of a child that runs one pass of the workload."""
    kib = int(_child(_RSS_CHILD, json.dumps([c.argv for c in cases])).split()[-1])
    return kib / 1024


def run_pass(run, cases, configs, tally: Tally) -> tuple[float, int]:
    """Time one pass over the inputs; then check every verdict."""
    outcomes = []
    start = perf_counter()
    for config in configs:
        out, err = io.StringIO(), io.StringIO()
        try:
            code = run(config, out, err)
        except Exception:  # a traceback is a wrong verdict, not a benchmark crash
            code = traceback.format_exc()
        outcomes.append((code, out.getvalue(), err.getvalue()))
    elapsed = perf_counter() - start
    items = sum(tally.record(case, outcome) for case, outcome in zip(cases, outcomes))
    return elapsed, items


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest sample with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - 1 - TAIL_BEYOND], 100 * (n - TAIL_BEYOND) / n


def measure(cli, cases, configs, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics, tracing off."""
    setup_raw, setup_scaled = setup_seconds()
    run_pass(cli.run, cases, configs, tally)  # warm-up, verdicts still counted
    results, scales, calib = bracketed(lambda: run_pass(cli.run, cases, configs, tally),
                                       seconds, MIN_PASSES)
    raw = [elapsed for elapsed, _ in results]
    items = sum(n for _, n in results)

    def summary(times: list[float], setup: list[float]) -> dict:
        return {"pass_s_p50": statistics.median(times), "pass_s_tail": tail(times)[0],
                "items_per_s": items / sum(times), "setup_s": statistics.median(setup)}
    return {
        "metrics": {**summary([t * k for t, k in zip(raw, scales)], setup_scaled),
                    "peak_rss_mb": peak_rss_mib(cases)},
        "raw": summary(raw, setup_raw),
        "passes": len(raw),
        "tail_percentile": tail(raw)[1],
        "setup_imports": SETUP_IMPORTS,
        "host.calib_s": statistics.median(calib),
    }


def measure_layers(cli, cases, configs, seconds: float, tally: Tally,
                   spans_path: Path) -> dict:
    """Per-layer metrics from traced passes, each after an untraced one so
    that both see the same host conditions. Times are scaled to the
    reference host like the end-to-end ones."""
    tracers = []

    def pair() -> tuple:
        untraced, _ = run_pass(cli.run, cases, configs, tally)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = run_pass(tracer.span("cli.run", cli.run), cases, configs, tally)
        finally:
            tracer.remove()
        tracers[:] = [tracer]
        return (untraced, traced, *layer_metrics(tracer, "cli.run"))

    run_pass(cli.run, cases, configs, tally)
    results, scales, calib = bracketed(pair, seconds, MIN_TRACED_PASSES)
    tracers[0].write(spans_path)
    counts = results[0][3]
    for *_, pass_counts in results:
        if pass_counts != counts:
            changed = sorted(k for k in counts if counts[k] != pass_counts[k])
            raise TraceError(f"counts differ between traced passes: {changed}")
    plain = [r[0] * k for r, k in zip(results, scales)]
    traced_times = [r[1] * k for r, k in zip(results, scales)]
    times = [{name: v * k for name, v in r[2].items()} for r, k in zip(results, scales)]
    t = {k: statistics.median(p[k] for p in times) for k in times[0]}
    traced = statistics.median(traced_times)
    metrics = {
        "surface.lex_s": t["surface.lex_s"],
        "surface.tokens": counts["surface.tokens"],
        "surface.tokens_per_s": _ratio(counts["surface.tokens"], t["surface.lex_s"]),
        "surface.parse_s": t["surface.parse_s"],
        "surface.items": counts["surface.items"],
        "surface.resolve_s": t["surface.resolve_s"],
        "cli.self_s": t["cli.self_s"],
        "kernel.decl_s": t["kernel.decl_s"],
        "kernel.pragma_s": t["kernel.pragma_s"],
        "kernel.fuel_steps": counts["kernel.fuel_steps"],
        "semantics.eval_s": t["semantics.eval_s"],
        "semantics.eval_calls": counts["semantics.eval_calls"],
        "semantics.fuel_steps": counts["semantics.fuel_steps"],
        "semantics.steps_per_s": _ratio(counts["semantics.fuel_steps"], t["semantics.eval_s"]),
        "semantics.globals_forced": counts["semantics.globals_forced"],
        "semantics.forced_ratio": _ratio(counts["semantics.globals_forced"],
                                         counts["semantics.globals_defined"]),
        "semantics.convert_s": t["semantics.convert_s"],
        "semantics.convert_calls": counts["semantics.convert_calls"],
        "semantics.quote_s": t["semantics.quote_s"],
        "semantics.nf_nodes": counts["semantics.nf_nodes"],
        "semantics.nf_nodes_per_fuel": _ratio(counts["semantics.nf_nodes"],
                                              max(counts["semantics.normalize_fuel"], 1)),
        "pretty.s": t["pretty.s"],
        "pretty.chars": counts["pretty.chars"],
        "diagnostics.s": t["diagnostics.s"],
        "diagnostics.count": counts["diagnostics.count"],
        "semantics.fuel_exhausted": counts["semantics.fuel_exhausted"],
        "trace.overhead": traced / statistics.median(plain),
        "trace.pass_s": traced,
        "host.calib_s": statistics.median(calib),
    }
    return {"metrics": metrics, "passes": len(results),
            "other_s": t["other_s"], "spans": counts["spans"]}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_end_to_end(name: str, seed: int, r: dict, tally: Tally) -> None:
    m, raw = r["metrics"], r["raw"]
    rate = tally.failed / tally.attempted
    print(f"== {name}  seed {seed}  end to end, tracing off "
          f"(reference-host seconds; raw wall seconds in brackets)")
    print(f"  pass_s_p50          {_fmt(m['pass_s_p50'])} s [{_fmt(raw['pass_s_p50'])}]"
          f"   median of {r['passes']} passes")
    print(f"  pass_s_tail         {_fmt(m['pass_s_tail'])} s [{_fmt(raw['pass_s_tail'])}]"
          f"   p{r['tail_percentile']:.1f} of {r['passes']} passes")
    print(f"  items_per_s         {_fmt(m['items_per_s'])} 1/s [{_fmt(raw['items_per_s'])}]")
    print(f"  verdict_error_rate  {_fmt(rate)}   {tally.failed} of {tally.attempted} runs")
    print(f"  setup_s             {_fmt(m['setup_s'])} s [{_fmt(raw['setup_s'])}]"
          f"   median of {r['setup_imports']} imports")
    print(f"  peak_rss_mb         {_fmt(m['peak_rss_mb'])} MiB")
    print(f"  host.calib_s        {_fmt(r['host.calib_s'])} s   "
          f"(reference {CALIB_REF_S} s)")


def print_layers(name: str, seed: int, r: dict) -> None:
    m = r["metrics"]
    print(f"== {name}  seed {seed}  per layer, median of {r['passes']} traced passes "
          f"({r['spans']} spans each)")
    for key, unit in PER_LAYER_UNITS.items():
        share = ""
        if unit == "s" and key not in ("trace.pass_s", "host.calib_s"):
            share = f"  {100 * m[key] / m['trace.pass_s']:5.1f}% of traced pass"
        print(f"  {key:28s} {_fmt(m[key]):>12s} {unit:6s}{share}")
    print(f"  {'(normalize, vvar, shift)':28s} {_fmt(r['other_s']):>12s} s")


def _result(metrics: dict, units: dict, tally: Tally) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def _load_cli():
    if not (SRC / "tinytt" / "cli.py").is_file() or not (ROOT / "corpus").is_dir():
        raise SystemExit(f"error: {ROOT} holds no tinytt checkout (src/tinytt, corpus)")
    sys.path.insert(0, str(SRC))
    from tinytt import cli
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's src/")
    return cli


def _inputs(cli, name: str, seed: int, directory: Path):
    cases = workloads.build(name, seed, ROOT / "corpus", directory)
    return cases, [cli.parse_flags(c.argv) for c in cases]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the whole record as JSON")
    args = parser.parse_args(argv)
    cli = _load_cli()
    OUT.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    record, total = {}, Tally()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name in names:
            directory = Path(tmp) / name
            directory.mkdir()
            cases, configs = _inputs(cli, name, args.seed, directory)
            entry = record[name] = {"why": workloads.WHY[name]}
            if args.workload == "all" or not args.trace:
                tally = Tally()
                e2e = measure(cli, cases, configs, args.seconds, tally)
                print_end_to_end(name, args.seed, e2e, tally)
                _report_errors(tally)
                entry["end_to_end"] = e2e
                entry["verdict_error_rate"] = tally.failed / tally.attempted
                _merge(total, tally)
            if args.workload == "all" or args.trace:
                tally = Tally()
                layers = measure_layers(cli, cases, configs, args.seconds, tally,
                                        OUT / f"spans-{name}.jsonl")
                print_layers(name, args.seed, layers)
                _report_errors(tally)
                entry["per_layer"] = layers
                _merge(total, tally)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.workload == "all":
        metrics = {f"{n}/{k}": v for n, e in record.items()
                   for part in ("end_to_end", "per_layer") for k, v in e[part]["metrics"].items()}
        units = {f"{n}/{k}": u for n in record
                 for k, u in {**END_TO_END_UNITS, **PER_LAYER_UNITS}.items()}
        print(_result(metrics, units, total))
    else:
        part, units = (("per_layer", PER_LAYER_UNITS) if args.trace
                       else ("end_to_end", END_TO_END_UNITS))
        print(_result(record[args.workload][part]["metrics"], units, total))
    return 0


def _merge(total: Tally, tally: Tally) -> None:
    total.attempted += tally.attempted
    total.failed += tally.failed


def _report_errors(tally: Tally) -> None:
    for problem in tally.errors:
        print(f"  wrong verdict: {problem}")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
