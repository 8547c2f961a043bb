"""One run of one workload, in a fresh single-threaded process.

Started by run.py, never by hand.  It sets up (imports, handles, generated
inputs) and prints when set-up finished on the system monotonic clock.  It
then runs the timed phase in segments, each up to a cumulative number of
seconds read from stdin, until stdin says `end`.  Its last stdout line is one
JSON object: the timed phase, the output check and, with --trace 1, the
per-layer figures.
With --setup-only it prints only when set-up finished, and stops.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS_DIR = os.path.join(ROOT, ".perfbench_results")

from workloads import DEFAULT_GENERATOR_COUNT, ball_inputs, query_inputs  # noqa: E402

MIN_OPS = 11  # the tail percentile needs ten samples beyond it


def import_package():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import groupgrowth
    from groupgrowth import bounds, cayley, cli, groups, manifold, surface, words

    if not os.path.abspath(groupgrowth.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"groupgrowth imported from {groupgrowth.__file__}, not from this checkout")
    return types.SimpleNamespace(
        bounds=bounds, cayley=cayley, cli=cli, groups=groups, manifold=manifold, surface=surface, words=words
    )


class TableOp:
    """One growth table on a handle built during set-up."""

    def __init__(self, gg, table: dict):
        self.gg = gg
        self.id = table["id"]
        self.spec = table["spec"]
        self.kmax = table["kmax"]
        self.handle = gg.groups.make_group(gg.groups.GroupSpec.from_dict(self.spec))
        named = self.handle.default_generators().named()
        if len(named) != DEFAULT_GENERATOR_COUNT[self.id]:
            raise SystemExit(f"{self.id}: expected {DEFAULT_GENERATOR_COUNT[self.id]} generators")
        ordered = [named[i] for i in table["gen_order"]]
        self.gens = gg.groups.make_generating_set(self.handle, ordered, symmetrize=False)

    def __call__(self):
        return self.gg.cayley.growth_table(self.handle, self.gens, self.kmax).gamma

    def check(self, result) -> bool:
        from refs import reference_gamma

        return list(result) == reference_gamma(self.spec, self.kmax)

    def elements(self) -> int:
        from refs import reference_gamma

        return reference_gamma(self.spec, self.kmax)[-1]


class QueryOp:
    """One in-process CLI call; its result is the exit code and stdout."""

    def __init__(self, gg, call: dict):
        self.gg = gg
        self.argv = call["argv"]
        self.id = self.argv[0]
        self.check_spec = call["check"]

    def __call__(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                rc = self.gg.cli.main(self.argv)
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code
        return rc, out.getvalue()

    def check(self, result) -> bool:
        from refs import check_query

        rc, text = result
        if rc != 0:  # the CLI reports its errors on stderr and prints no JSON
            return False
        try:
            report = json.loads(text)
        except ValueError:
            return False
        return check_query(self.check_spec, rc, report)

    def elements(self) -> int:
        from refs import reference_gamma

        if self.id in ("growth", "verify"):
            return reference_gamma(self.check_spec["spec"], self.check_spec["kmax"])[-1]
        return 0


def set_up(args, stack: contextlib.ExitStack):
    """Import the package and build the ops; spec files live until `stack` closes.

    The spec directory is made inside the checkout's ignored results
    directory, as the benchmark writes nothing outside its checkout.
    """
    gg = import_package()
    if args.workload == "queries":
        os.makedirs(RESULTS_DIR, exist_ok=True)
        spec_dir = stack.enter_context(tempfile.TemporaryDirectory(prefix="specs-", dir=RESULTS_DIR))
        files, calls = query_inputs(args.seed, spec_dir)
        for path, obj in files.items():
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        ops = [QueryOp(gg, c) for c in calls]
    else:
        ops = [TableOp(gg, t) for t in ball_inputs(args.workload, args.seed)]
    return gg, ops


class Outcomes:
    """Per op: call times, the first output, and how many later outputs differ from it."""

    def __init__(self, n: int):
        self.times = [[] for _ in range(n)]
        self.first = [None] * n
        self.differing = [0] * n

    def ops_done(self) -> int:
        return sum(len(t) for t in self.times)

    def failures(self, ops) -> int:
        """Every output of an op whose first output misses its reference, plus every repeat that differs."""
        failed = 0
        for i, op in enumerate(ops):
            first_ok = self.first[i] is not None and op.check(self.first[i])
            failed += self.differing[i] if first_ok else len(self.times[i])
        return failed


def run_round(ops, out: Outcomes) -> None:
    """Run every op once; an op that raises is recorded with output None."""
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            result = op()
        except Exception as exc:  # the output gate counts it as a failed operation
            print(f"{op.id}: {type(exc).__name__}: {exc}", file=sys.stderr)
            result = None
        out.times[i].append(time.perf_counter() - t0)
        if len(out.times[i]) == 1:
            out.first[i] = result
        elif result is None or result != out.first[i]:
            out.differing[i] += 1


def stdin_targets():
    """Cumulative seconds of timed work, one per stdin line, until a line `end`."""
    for line in sys.stdin:
        if line.strip() == "end":
            return
        yield float(line)


def timed_phase(ops, targets) -> Outcomes:
    """Run whole rounds until the timed work reaches each target in turn.

    After each target the worker prints a line and waits, idle, for the next
    one, so run.py can time a fresh set-up between segments of the run.
    """
    out = Outcomes(len(ops))
    spent = 0.0
    for target in targets:
        while spent < target:
            t0 = time.perf_counter()
            run_round(ops, out)
            spent += time.perf_counter() - t0
        print("segment done", flush=True)
    while out.ops_done() < MIN_OPS:
        run_round(ops, out)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    with contextlib.ExitStack() as stack:
        gg, ops = set_up(args, stack)
        ready = time.monotonic()
        if args.setup_only:
            report = {"ready": ready}
        else:
            print(json.dumps({"ready": ready}), flush=True)
            report = measure(gg, ops, args)
    print(json.dumps(report))
    return 0


def measure(gg, ops, args) -> dict:
    out = timed_phase(ops, stdin_targets())
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {
        "ops": [op.id for op in ops],
        "times": out.times,
        "elements": [op.elements() for op in ops],
        "attempted": out.ops_done(),
        "failed": out.failures(ops),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
    }
    if args.trace:
        from layers import LayerTrace, micro_probe

        untraced_round = statistics.median(map(sum, zip(*out.times)))
        layer = LayerTrace(gg)
        layer.install([op.handle for op in ops if isinstance(op, TableOp)])
        traced = Outcomes(len(ops))
        t0 = time.perf_counter()
        run_round(ops, traced)
        traced_round = time.perf_counter() - t0
        layer.remove()
        report["attempted"] += len(ops)
        report["failed"] += sum(1 for a, b in zip(out.first, traced.first) if a != b)
        layers = layer.metrics()
        layers["trace.overhead_s"] = traced_round - untraced_round
        layers.update(micro_probe(gg))
        report["layers"] = layers
    return report


if __name__ == "__main__":
    sys.exit(main())
