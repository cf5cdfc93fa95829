"""Per-layer metrics from the tracer's per-iteration totals.

Each metric below is the median over the traced iterations of a run. The
comment on each group names the end-to-end metric and workload it should
move (see bench/README.md).
"""

import os
import statistics


def bytes_under(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


class Sample:
    """One traced iteration: per-function (calls, total s, self s), the
    covered time, the engine.run hook totals, the wall time and the bytes
    the iteration wrote."""

    def __init__(self, funcs, covered, run_info, wall, nbytes):
        self.funcs = funcs
        self.covered = covered
        self.run_info = run_info
        self.wall = wall
        self.nbytes = nbytes

    @classmethod
    def between(cls, before, after, wall, nbytes):
        (f0, c0, r0), (f1, c1, r1) = before, after
        funcs = {}
        for key, (calls, total, self_s) in f1.items():
            b = f0.get(key, (0, 0.0, 0.0))
            funcs[key] = (calls - b[0], total - b[1], self_s - b[2])
        run_info = {k: r1[k] - r0[k] for k in r1}
        return cls(funcs, c1 - c0, run_info, wall, nbytes)

    def calls(self, key):
        return self.funcs.get(key, (0, 0.0, 0.0))[0]

    def total(self, *keys):
        return sum(self.funcs.get(k, (0, 0.0, 0.0))[1] for k in keys)

    def self_time(self, key):
        return self.funcs.get(key, (0, 0.0, 0.0))[2]

    def module_self(self, module):
        prefix = module + "."
        return sum(v[2] for k, v in self.funcs.items() if k.startswith(prefix))

    def module_calls(self, module):
        prefix = module + "."
        return sum(v[0] for k, v in self.funcs.items() if k.startswith(prefix))

    @property
    def other(self):
        return self.wall - self.covered


def _ratio(num, den):
    return num / den if den else 0.0


def _values(s: Sample) -> dict:
    """name -> (value, unit) for one traced iteration."""
    steps = s.calls("engine.step")
    runs = s.calls("engine.run")

    def us_step(seconds):
        return _ratio(seconds, steps) * 1e6

    orders = s.calls("traders.trader_orders")
    inits = s.calls("traders.init_population")
    mixes = s.calls("seeding.mix_seed")
    solves = s.calls("analysis.alpha_fixed_points")
    return {
        # engine -> wall_s on sweep and grid; step self on every workload
        "engine.runs": (runs, "count"),
        "engine.steps": (steps, "count"),
        "engine.horizon_ratio": (_ratio(steps, s.run_info["horizon"]), "ratio"),
        "engine.us_per_step": (us_step(s.total("engine.run")), "us"),
        "engine.run_self_us_per_step": (us_step(s.self_time("engine.run")), "us"),
        "engine.step_self_us_per_step": (us_step(s.self_time("engine.step")), "us"),
        "engine.collect_self_us_per_step":
            (us_step(s.self_time("engine.collect_orders")), "us"),
        "engine.impact_us_per_step":
            (us_step(s.total("engine.update_price_ratio",
                             "engine.update_price_powerlaw")), "us"),
        "engine.settle_us_per_step": (us_step(s.total("engine.settle")), "us"),
        "engine.momentum_us_per_step":
            (us_step(s.total("engine.update_momentum")), "us"),
        "engine.aborted_runs": (s.run_info["aborted"], "count"),
        # traders -> wall_s on multival and sweep (orders), sweep (init)
        "traders.order_calls": (orders, "count"),
        "traders.orders_us_per_call":
            (_ratio(s.total("traders.trader_orders"), orders) * 1e6, "us"),
        "traders.init_calls": (inits, "count"),
        "traders.init_us_per_call":
            (_ratio(s.total("traders.init_population"), inits) * 1e6, "us"),
        # seeding, metrics -> wall_s on sweep
        "seeding.mix_calls": (mixes, "count"),
        "seeding.mix_us_per_call":
            (_ratio(s.total("seeding.mix_seed"), mixes) * 1e6, "us"),
        "metrics.calls": (s.module_calls("metrics"), "count"),
        "metrics.us_per_run": (_ratio(s.module_self("metrics"), runs) * 1e6, "us"),
        # analysis, experiments -> wall_s on grid
        "analysis.solves": (solves, "count"),
        "analysis.us_per_solve":
            (_ratio(s.total("analysis.alpha_fixed_points"), solves) * 1e6, "us"),
        "experiments.probes_per_cell":
            (_ratio(s.calls("experiments._crash_outcome"),
                    s.calls("experiments.threshold_search")), "ratio"),
        "experiments.self_s": (s.module_self("experiments"), "s"),
        # config -> setup_s; cli -> wall_s on multival
        "config.parse_s": (s.total("config.parse_config"), "s"),
        "cli.self_s": (s.module_self("cli"), "s"),
        "cli.bytes_written": (s.nbytes, "bytes"),
        "other_s": (s.other, "s"),
        "trace.wall_s": (s.wall, "s"),
    }


def per_layer(samples, untraced_wall: float):
    """(metrics, table): medians of the per-iteration values, and a text
    table of mean self time per module that adds up to the traced wall."""
    per_sample = [_values(s) for s in samples]
    metrics = {}
    for name, (_, unit) in per_sample[0].items():
        # counts take an observed value, so they stay whole numbers
        median = statistics.median_low if unit in ("count", "bytes") else statistics.median
        metrics[name] = (median(v[name][0] for v in per_sample), unit)
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead"] = (metrics["trace.wall_s"][0] / untraced_wall, "ratio")

    n = len(samples)
    lines = [f"traced iterations {n}; mean self time per iteration:"]
    total = 0.0
    for module in sorted({k.split(".")[0] for s in samples for k in s.funcs}):
        value = sum(s.module_self(module) for s in samples) / n
        total += value
        lines.append(f"  {module + '.self_s':<18} {value:.6f} s")
    other = sum(s.other for s in samples) / n
    wall = sum(s.wall for s in samples) / n
    lines.append(f"  {'other_s':<18} {other:.6f} s")
    lines.append(f"  {'sum':<18} {total + other:.6f} s = traced wall {wall:.6f} s "
                 f"(residual {total + other - wall:.2e} s)")
    return metrics, "\n".join(lines)
