"""Run one `blamescope` command in this process, optionally traced.

    python perfbench/inproc.py --result FILE [--trace] -- <cli arguments>

Times the import of `blamescope.cli` and the call to `cli.main`, then
writes {"import_s", "main_s", "rc", "spans"} to FILE. With --trace, the
public functions of each package module are wrapped before the call: every
name a caller looks up (module attributes and the names bound by
`from .x import y`) is rebound to the wrapper. Each span is kept in memory
as [name, parent index, start, end, counters] and written out at the end.
Counters are read off call arguments and results. Per-state and per-case
helpers (`scm.solve`, `hitl.decide_hitl`, ...) are not wrapped, because a
wrapper there would distort the times being measured.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

# module -> public functions that get a span
WRAPPED = {
    "cli": ("main",),
    "io": ("load_cases", "load_scm_bundle", "canonical_dumps"),
    "scm": ("validate", "event_probability", "event_probability_mc", "intervene", "abduct"),
    "blame": ("apply_action", "expected_cost", "discounted_blame"),
    "hitl": ("run", "hitl_blame"),
    "attribution": ("annotate", "summarize"),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _joint_states(model) -> int:
    n = 1
    for ex in model.exogenous:
        n *= len(ex.domain)
    return n


def _states(args, kwargs, result):
    return {"states": _joint_states(_arg(args, kwargs, 0, "scm"))}


def _abduct(args, kwargs, result):
    return {"states": _joint_states(_arg(args, kwargs, 0, "scm")),
            "support": len(result.support)}


def _mc(args, kwargs, result):
    model = _arg(args, kwargs, 0, "scm")
    return {"samples": int(_arg(args, kwargs, 2, "samples")),
            "variables": len(model.exogenous) + len(model.endogenous)}


COUNTERS = {
    "io.load_cases": lambda a, k, r: {"rows": len(r)},
    "io.canonical_dumps": lambda a, k, r: {"bytes": len(r.encode("utf-8"))},
    "hitl.run": lambda a, k, r: {"cases": len(_arg(a, k, 0, "cases"))},
    "attribution.annotate": lambda a, k, r: {"records": len(r)},
    "scm.event_probability": _states,
    "blame.expected_cost": _states,
    "scm.abduct": _abduct,
    "scm.event_probability_mc": _mc,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        counters = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else None, 0.0, 0.0, {}]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = {"raised": 1}
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if counters is not None:
                span[4] = counters(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every function in WRAPPED and rebind each package-level
        name that refers to it."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "blamescope" or n.startswith("blamescope."))]
        for short, names in WRAPPED.items():
            home = sys.modules[f"blamescope.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{short}.{fname}", original)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t0 = time.perf_counter()
    import blamescope.cli  # imported here: the import is what is timed
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    if args.trace:
        tracer.install()
    t0 = time.perf_counter()
    rc = blamescope.cli.main(cli_args)
    main_s = time.perf_counter() - t0

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "main_s": main_s, "rc": rc,
                   "module": blamescope.cli.__file__, "spans": tracer.spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
