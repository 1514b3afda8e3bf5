"""One benchmark pass in a fresh interpreter, so that every memo table and
catalog cache starts cold, as it does for each command line user.

    python3 perfbench/child.py SPEC.json RESULT.json

Run it from the repository root: ballotperm is imported from ./src.
SPEC holds {"mode": ..., "requests": [argv, ...], "trace": bool}.  Modes:
  pass      import ballotperm, then send each argv to
            ballotperm.cli.main in turn (one client, closed loop)
  setup     only import ballotperm and build the CLI parser
  permstat  time the per-word statistics over all of S_8
RESULT receives the timings, the exit codes and, for a traced pass, the
spans and the exact counters.
"""

# Only modules the interpreter has loaded at start-up are imported before
# ballotperm: anything else it shares with ballotperm (json, fractions via
# statistics) would be missing from the measured set-up time.
import os
import sys
import time


class Tracer:
    """Spans around calls into each layer, kept in memory.

    `wrap` replaces a function on its module or class for the traced pass
    only; `restore` puts every original back.  A span is recorded as
    (id, parent id, request, name, arg, seconds, self seconds), where self
    time is the span minus the time covered by its child spans.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.request = -1
        self.catalogs: list = []
        self._stack: list[list] = []
        self._saved: list[tuple] = []
        self._next_id = 0

    def wrap(self, owner, attr: str, name, arg=None, keep_result=None):
        fn = getattr(owner, attr)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = name(*args) if callable(name) else name
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += seconds
                self.spans.append((span_id, parent, self.request, span_name,
                                   arg(*args) if arg else None, seconds,
                                   seconds - frame[1]))
            if keep_result is not None:
                keep_result.append(result)
            return result

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


SERIES_KERNELS = ("geom", "q_of", "exp_series", "exp_tm1", "subst_x_times",
                  "first_difference")
VERIFY_CHECKS = ("ballot_totals", "m_equidistribution", "first_letter_gf",
                 "symmetrized_first", "factor_counts", "functional_equation",
                 "ballot_cyclic_factor", "neighbor_pair_gf")
ORACLE_TABLES = ("eulerian_first", "ballot_desc", "odd_order_M", "E", "b_factor",
                 "p_cyclic", "l")


def instrument(tracer: Tracer) -> None:
    """Wrap the layer boundaries.  The per-word permstat functions are left
    alone: they run once per word inside the oracle loops, and wrapping them
    would swamp the timing (they are timed on their own in permstat mode).
    The recursive memoized routes in counts are left alone for the same
    reason; the table span covers them."""
    from ballotperm import cli, counts, oracle, series, verify

    tracer.wrap(cli, "main", "cli.main")
    # the table computation is the boundary between cli and counts
    tracer.wrap(cli, "_table_entries", lambda stat, *_: f"counts.table.{stat}")
    tracer.wrap(counts, "build_catalog", "counts.build_catalog",
                keep_result=tracer.catalogs)
    for attr in ("__mul__", "__rmul__"):
        tracer.wrap(series.MultiSeries, attr, "series.mul")
    for kernel in SERIES_KERNELS:
        tracer.wrap(series, kernel, f"series.{kernel}")
    for table in ORACLE_TABLES:
        tracer.wrap(oracle, f"oracle_{table}", f"oracle.{table}",
                    arg=lambda n, *_, **__: n)
    for check in VERIFY_CHECKS:
        tracer.wrap(verify, f"check_{check}", f"verify.{check}")


def counters(tracer: Tracer) -> dict:
    """Exact counts of the traced pass: they must repeat on the same inputs."""
    from math import factorial

    from ballotperm import counts

    oracle_spans = [s for s in tracer.spans if s[3].startswith("oracle.")]
    cold_tables = dict.fromkeys((s[3], s[4]) for s in oracle_spans)
    out = {"series.mul_calls": sum(s[3] == "series.mul" for s in tracer.spans),
           "oracle.calls": len(oracle_spans),
           # n! words per table built cold; later calls are served from cache
           "oracle.words_visited": sum(factorial(n) for _, n in cold_tables)}
    for fn in ("eulerian_first", "eulerian"):
        info = getattr(counts, fn).cache_info()
        out[f"counts.{fn}.hits"] = info.hits
        out[f"counts.{fn}.misses"] = info.misses
    cat = tracer.catalogs[-1] if tracer.catalogs else None
    for name in counts.CATALOG_SERIES:
        terms = getattr(cat, name).terms if cat else {}
        out[f"series.terms.{name}"] = len(terms)
        out[f"series.max_bits.{name}"] = max(
            (max(abs(c.numerator).bit_length(), c.denominator.bit_length())
             for c in terms.values()), default=0)
    return out


def load_program(src: str):
    start = time.perf_counter()
    sys.path.insert(0, src)
    from ballotperm import cli
    cli.build_parser()
    setup = time.perf_counter() - start
    if os.path.commonpath([cli.__file__, src]) != src:
        raise SystemExit(f"imported ballotperm from {cli.__file__}, not from {src}")
    return cli, setup


def run_pass(cli, requests: list[list[str]], tracer: Tracer | None) -> dict:
    results = []
    start = time.perf_counter()
    for i, argv in enumerate(requests):
        if tracer:
            tracer.request = i
        t = time.perf_counter()
        try:
            rc, error = cli.main(argv), None
        except Exception as exc:  # a crash is a failed request, not a failed benchmark
            rc, error = None, f"{type(exc).__name__}: {exc}"
        results.append({"rc": rc, "error": error, "seconds": time.perf_counter() - t})
    return {"wall_s": time.perf_counter() - start, "results": results}


def time_permstat(repeat: int = 3) -> dict:
    import statistics
    from collections import deque
    from itertools import permutations

    from ballotperm import permstat

    words = list(permutations(range(1, 9)))
    out = {}
    for name in ("descents", "is_ballot", "is_odd_order", "cycle_decompose",
                 "m_statistic"):
        fn = getattr(permstat, name)
        times = []
        for _ in range(repeat):
            t = time.perf_counter()
            deque(map(fn, words), maxlen=0)
            times.append(time.perf_counter() - t)
        out[f"permstat.{name}_ns_per_word"] = statistics.median(times) / len(words) * 1e9
    return out


def main(spec_path: str, result_path: str) -> None:
    cli, setup = load_program(os.path.abspath("src"))
    import json
    import resource

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    out = {"setup_s": setup}
    if spec["mode"] == "pass":
        tracer = Tracer() if spec["trace"] else None
        if tracer:
            instrument(tracer)
        try:
            out.update(run_pass(cli, spec["requests"], tracer))
        finally:
            if tracer:
                tracer.restore()
        if tracer:
            out["spans"] = tracer.spans
            out["counters"] = counters(tracer)
    elif spec["mode"] == "permstat":
        out["permstat"] = time_permstat()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
