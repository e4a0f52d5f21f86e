"""One benchmark cell in a fresh interpreter.

    python3 bench/child.py SPEC

SPEC is a JSON object: ``argv`` for ``phasercheck.cli.main``, ``src``
(the directory holding the ``phasercheck`` package) and ``mode``:

* ``time``: run the command, recording when ``check`` or ``explore`` is
  entered and the pops, store and queue sizes that ``check`` reports to
  its public ``progress`` callback;
* ``trace``: the same, with every layer wrapped in a span (see
  ``Tracer``);
* ``setup``: stop as soon as ``check`` or ``explore`` is entered.

The last line of standard output is one JSON record of the run.  Every
wrapper replaces a name in the module through which callers reach it,
so the program itself is unchanged.
"""

import time

T_START = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


class SetupDone(Exception):
    """Raised at the entry of check or explore in ``setup`` mode."""


class Tracer:
    """Aggregated spans.  Each wrapped call is one span; spans nest on a
    stack, so a span's self time is its duration minus the time of the
    spans it encloses.  Totals are kept per (layer, parent layer)."""

    def __init__(self):
        self.stack = []  # open spans: [layer, time spent in child spans]
        self.agg = {}  # (layer, parent) -> [calls, s, self_s, n, m]

    def wrap(self, fn, layer, tally=None):
        """``tally(args, result)`` returns two counts to add to n and m."""
        stack, agg, clock = self.stack, self.agg, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                key = (layer, parent[0] if parent else None)
                a = agg.get(key)
                if a is None:
                    a = agg[key] = [0, 0.0, 0.0, 0, 0]
                a[0] += 1
                a[1] += dt
                a[2] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
            if tally is not None:
                n, m = tally(args, out)
                a[3] += n
                a[4] += m
            return out

        return traced

    def rows(self):
        return [[layer, parent] + a for (layer, parent), a in self.agg.items()]


def install_tracer(tracer):
    from phasercheck import cli, concrete, engine, pre, symbolic

    size = lambda args, out: (len(out), 0)
    truth = lambda args, out: (1 if out else 0, 0)
    kept = lambda args, out: (len(args[0]), len(out))
    configs = lambda args, out: (len(out.configs), 0)
    wraps = [
        (cli, "parse", "parser.parse", None),
        (cli, "assertion_targets", "targets.build", size),
        (cli, "registration_error_targets", "targets.build", size),
        (cli, "cyclic_wait_targets", "targets.build", size),
        (cli, "check", "engine.check", None),
        (cli, "validate_trace", "engine.validate_trace", None),
        (cli, "explore", "concrete.explore", configs),
        (engine, "program_suffixes", "control.suffixes", size),
        (engine, "pre", "pre", size),
        (pre, "canonical_constraint", "symbolic.canonical", None),
        (engine, "entails", "symbolic.entails", truth),
        (symbolic, "entails", "symbolic.entails", truth),
        (engine, "minimize", "symbolic.minimize", kept),
        (engine, "models", "symbolic.models", None),
        (concrete, "successors", "concrete.successors", None),
        (concrete, "canonical", "concrete.canonical", None),
        (concrete, "cyclic_waits", "concrete.cyclic_waits", None),
    ]
    # a name that a later version of the program drops is skipped: its
    # layer reads 0 and trace.coverage shows the time no longer accounted
    for module, name, layer, tally in wraps:
        if hasattr(module, name):
            setattr(module, name, tracer.wrap(getattr(module, name), layer, tally))


def install_probe(rec, setup_only):
    """Mark the entry of check/explore and read check's progress events."""
    from phasercheck import cli

    def on_pop(ev):
        rec["pops"] += 1
        rec["queue_peak"] = max(rec["queue_peak"], ev["working"])
        rec["store_peak"] = max(rec["store_peak"], ev["visited"])

    def entered():
        rec["t_enter"] = time.monotonic()
        if setup_only:
            raise SetupDone

    check, explore = cli.check, cli.explore

    def probed_check(*args, **kwargs):
        entered()
        kwargs["progress"] = on_pop
        return check(*args, **kwargs)

    def probed_explore(*args, **kwargs):
        entered()
        return explore(*args, **kwargs)

    cli.check, cli.explore = probed_check, probed_explore


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    t_import = time.monotonic()
    from phasercheck import cli

    rec = {
        "t_start": T_START,
        "import_s": time.monotonic() - t_import,
        "t_enter": None,
        "pops": 0,
        "queue_peak": 0,
        "store_peak": 0,
    }
    install_probe(rec, spec["mode"] == "setup")
    tracer = None
    if spec["mode"] == "trace":
        tracer = Tracer()
        install_tracer(tracer)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(spec["argv"])
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    except SetupDone:
        code = 0
    rec["t_end"] = time.monotonic()
    rec["exit"] = code
    rec["stdout"] = out.getvalue()
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        rec["layers"] = tracer.rows()
    print(json.dumps(rec))
    return code


if __name__ == "__main__":
    sys.exit(main())
