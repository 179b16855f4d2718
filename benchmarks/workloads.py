"""The three benchmark workloads: figures, oracle and sweep.

Each workload draws the inputs of every pass from the run's seed
(`make_inputs`), runs one pass in the timed region (`run`), as steps timed
and scaled by a `reference.StepTimer`, and checks the pass outputs outside
it (`check`).  The library only receives the generated inputs.  Every pass
of a workload does the same amount of work, so pass wall times are
replicate measurements; a pass takes about a second so that a run holds
enough of them for a stable median.  Checks return the number
of failed items; an exception raised by the library fails every item it
would have produced.
"""

import contextlib
import io
import math
import time
from pathlib import Path

import numpy as np

from catcavity import (cli, damping, dressed, observables, oracle, presets,
                       resummation, states)
from reference import ClosedForm, MasterEquation
from reference import Sweep as SweepReference

TWO_PI = 2.0 * math.pi

#: The paper's three figures: id -> [(csv name, preset, nbar, gt_max)].
FIGURES = {
    "fig1": [("fig1_coherent.csv", "benson97", 49.0, 50.0),
             ("fig1_cat.csv", "benson97", 49.0, 50.0)],
    "fig2": [("fig2_coherent.csv", "brune96", 3.3, 25.0),
             ("fig2_cat.csv", "brune96", 3.3, 25.0)],
    "fig3": [("fig3_benson97.csv", "benson97", 49.0, 50.0),
             ("fig3_brune96.csv", "brune96", 3.3, 25.0)],
}
#: Time step of the figure axes (the CLI default is 0.1).  The cost per row
#: is the same; 0.5 keeps one pass of all three figures near one second.
GT_STEP = 0.5
CHECKED_ROWS_PER_CSV = 3
#: P_plusplus may exceed P_plus by the clipping of near-zero negative entries.
JOINT_ROUNDOFF = 1e-9

ORACLE_NBAR = 4.0
ORACLE_TRUNCATION = 32
ORACLE_GT_MAX = 50.0
ORACLE_SAMPLES = 21
COHERENCE_SAMPLES = 11
#: Atom passage of the joint-probability run; fixed, so every pass costs
#: the same.
JOINT_GT_A = 10.0
#: Criterion-1 bound on max |F_n - F*_n| at zero temperature.
F_DEV_BOUND = 1e-3

#: One sweep pass: one config per nbar stratum and preset, so that every
#: pass has the same mix of truncations.
SWEEP_STRATA = 50
SWEEP_PRESETS = ("benson97", "brune96")
SWEEP_NBAR = (1.0, 100.0)
#: Configs per timed step (about 80 ms).
SWEEP_STEP = 10
RESUM_MIN_NBAR = 10.0
RESUM_ORDER = 2
#: Array and scalar p_excited calls run the same arithmetic.
ARRAY_SCALAR_TOL = 1e-12
#: P_+(0) and the joint marginal differ from exact values by the mass
#: lost to the truncation (below 1e-10) and clipping round-off.
SUM_RULE_TOL = 1e-9


def _n_rows(gt_max):
    return int(round(gt_max / GT_STEP)) + 1


def _fmt(value):
    return "" if value is None else format(value, ".12g")


def _experiment(preset_name, nb, field, truncation=0):
    preset = presets.PRESETS[preset_name]
    damp = damping.DampingParams(kappa=preset.kappa, n_thermal=nb)
    return observables.ExperimentConfig(jc=preset.jc(), damping=damp,
                                        initial_field=field,
                                        truncation=truncation)


class Figures:
    """`catcavity figure fig1|fig2|fig3` through `cli.main`, into a temp dir."""

    name = "figures"
    reference = ClosedForm

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)

    @staticmethod
    def make_inputs(rng, passes):
        out = []
        for _ in range(passes):
            rows = {csv: rng.sample(range(_n_rows(gt_max)),
                                    CHECKED_ROWS_PER_CSV)
                    for files in FIGURES.values()
                    for csv, _, _, gt_max in files}
            out.append({"nb": rng.uniform(0.0, 0.2),
                        "phi": rng.uniform(0.0, TWO_PI), "rows": rows})
        return out

    @staticmethod
    def sizes():
        return {"N": {"benson97": states.default_truncation(49.0),
                      "brune96": states.default_truncation(3.3)},
                "times": {csv: _n_rows(gt_max) for files in FIGURES.values()
                          for csv, _, _, gt_max in files},
                "gt_step": GT_STEP}

    @staticmethod
    def items():
        return sum(_n_rows(gt_max) for files in FIGURES.values()
                   for *_, gt_max in files)

    def run(self, inp, timer):
        """One step per command; a row's latency is its command's time over
        its rows."""
        errors, latencies = {}, []
        for fig, files in FIGURES.items():
            argv = ["figure", fig, "--nb", repr(inp["nb"]),
                    "--phi", repr(inp["phi"]), "--gt-step", repr(GT_STEP),
                    "--out", str(self.out_dir)]

            def command(argv=argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    return cli.main(argv)
            try:
                code = timer.step(command)
                if code != 0:
                    errors[fig] = f"exit code {code}"
            except Exception as exc:  # a failed command fails its rows
                errors[fig] = repr(exc)
            rows = sum(_n_rows(gt_max) for *_, gt_max in files)
            latencies += [timer.last / rows] * rows
        return {"errors": errors, "latencies": latencies}

    def check(self, inp, out):
        failed = 0
        for fig, files in FIGURES.items():
            for csv, preset_name, nbar, gt_max in files:
                if fig in out["errors"]:
                    failed += _n_rows(gt_max)
                    continue
                try:
                    failed += self._check_csv(inp, fig, csv, preset_name,
                                              nbar, gt_max)
                except (OSError, ValueError, IndexError):
                    failed += _n_rows(gt_max)
        return failed

    def _check_csv(self, inp, fig, csv, preset_name, nbar, gt_max):
        expected = _n_rows(gt_max)
        lines = (self.out_dir / csv).read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines[2:]]
        if not lines[0].startswith("#") or len(rows) != expected:
            return expected
        failed = sum(not self._row_in_range(fig, row) for row in rows)
        coherent = _experiment(preset_name, inp["nb"],
                               states.coherent_distribution(
                                   nbar, states.default_truncation(nbar)))
        cat = _experiment(preset_name, inp["nb"],
                          states.CatSpec(intensity=nbar, phase=inp["phi"]))
        gts = np.arange(0.0, gt_max + 0.5 * GT_STEP, GT_STEP)
        times = gts / presets.PRESETS[preset_name].g
        for i in inp["rows"][csv]:
            t = times[i]
            if fig == "fig3":
                want = [_fmt(gts[i]),
                        _fmt(observables.eta_correlation(coherent, t)),
                        _fmt(observables.eta_correlation(cat, t))]
            else:
                config = coherent if csv.endswith("coherent.csv") else cat
                want = [_fmt(gts[i]), _fmt(observables.p_excited(config, t)),
                        _fmt(observables.p_joint(config, t, 2.0 * t,
                                                 "+", "+"))]
            failed += rows[i] != want
        return failed

    @staticmethod
    def _row_in_range(fig, row):
        if len(row) != 3:
            return False
        if fig == "fig3":
            return all(cell == "" or -1.0 <= float(cell) <= 1.0
                       for cell in row[1:])
        p_plus, p_pp = float(row[1]), float(row[2])
        return (0.0 <= p_plus <= 1.0 and 0.0 <= p_pp <= 1.0
                and p_pp <= p_plus + JOINT_ROUNDOFF)


class Oracle:
    """Master-equation oracle: two trajectories, a joint and a coherence run."""

    name = "oracle"
    reference = MasterEquation

    def __init__(self, out_dir):
        self.preset = presets.PRESETS["benson97"]
        self.jc = self.preset.jc()
        self.times = np.linspace(0.0, ORACLE_GT_MAX / self.preset.g,
                                 ORACLE_SAMPLES)

    @staticmethod
    def make_inputs(rng, passes):
        return [{"nb": 0.2 * (1.0 - rng.random()),  # in (0, 0.2]
                 "phi": rng.uniform(0.0, TWO_PI),
                 "s1": rng.choice("+-")}
                for _ in range(passes)]

    @staticmethod
    def sizes():
        return {"N": ORACLE_TRUNCATION, "times": ORACLE_SAMPLES,
                "gt_max": ORACLE_GT_MAX, "trajectories": 2,
                "coherence_times": COHERENCE_SAMPLES}

    @staticmethod
    def items():
        return 2 * ORACLE_SAMPLES + 2

    def _damping(self, nb):
        return damping.DampingParams(kappa=self.preset.kappa, n_thermal=nb)

    def run(self, inp, timer):
        """One step per call; an item's latency is its call's time over the
        call's items."""
        spec = states.CatSpec(intensity=ORACLE_NBAR, phase=inp["phi"])
        out = {"errors": {}, "latencies": []}

        def attempt(key, fn, items=1):
            try:
                out[key] = timer.step(fn)
            except Exception as exc:  # a failed call fails its items
                out["errors"][key] = repr(exc)
            out["latencies"] += [timer.last / items] * items

        rho0, frame = timer.step(lambda: (
            oracle.build_initial_state(spec, ORACLE_TRUNCATION),
            dressed.build_dressed_frame(self.jc, ORACLE_TRUNCATION)))
        for key, nb in (("nb0", 0.0), ("nb", inp["nb"])):
            def trajectory(nb=nb):
                traj = oracle.integrate_trajectory(rho0, self.jc,
                                                   self._damping(nb),
                                                   self.times)
                return traj, oracle.oracle_observables(traj, frame)
            attempt(key, trajectory, ORACLE_SAMPLES)
        damp = self._damping(inp["nb"])
        t_a = JOINT_GT_A / self.preset.g
        attempt("joint", lambda: oracle.joint_probability_oracle(
            rho0, self.jc, damp, t_a, 2.0 * t_a, inp["s1"], "+"))
        t_dec = damp.t_cav / (ORACLE_NBAR * (1.0 + inp["nb"]))
        attempt("coherence", lambda: oracle.branch_coherence_trajectory(
            spec, damp, np.linspace(0.0, 2.0 * t_dec, COHERENCE_SAMPLES),
            ORACLE_TRUNCATION))
        return out

    def check(self, inp, out):
        """Failed items; also stores the closed-form deviations in `out`."""
        spec = states.CatSpec(intensity=ORACLE_NBAR, phase=inp["phi"])
        failed = 0
        for key, nb in (("nb0", 0.0), ("nb", inp["nb"])):
            if key not in out:
                failed += ORACLE_SAMPLES
                continue
            traj, obs = out[key]
            config = _experiment(self.preset.name, nb, spec,
                                 truncation=ORACLE_TRUNCATION)
            drift = np.array([abs(np.trace(rho.matrix).real - 1.0)
                              for rho in traj])
            bad = drift > 10.0 * oracle.DEFAULT_TOL
            if key == "nb0":
                probs = config.distribution()
                f_dev = np.array([
                    np.abs(obs.f[i] - damping.f_star(probs, config.damping, t)
                           [:ORACLE_TRUNCATION]).max()
                    for i, t in enumerate(self.times)])
                bad |= f_dev >= F_DEV_BOUND
                out["f_dev_nb0"] = float(f_dev.max())
            else:
                closed = observables.p_excited(config, self.times)
                out["p_plus_dev"] = float(np.abs(obs.p_plus - closed).max())
            failed += int(bad.sum())
        joint = out.get("joint")
        failed += not (joint is not None and 0.0 <= joint <= 1.0)
        coherence = out.get("coherence")
        failed += not (coherence is not None
                       and np.all(np.isfinite(coherence))
                       and np.all((coherence >= 0.0) & (coherence <= 1.0)))
        return failed


class Sweep:
    """Closed-form observables over many distinct seed-drawn configurations."""

    name = "sweep"
    reference = SweepReference

    def __init__(self, out_dir):
        pass

    @staticmethod
    def make_inputs(rng, passes):
        lo, hi = SWEEP_NBAR
        width = (hi - lo) / SWEEP_STRATA
        out = []
        for _ in range(passes):
            configs = [(preset, lo + width * (k + rng.random()),
                        rng.uniform(0.0, TWO_PI), rng.uniform(0.0, 0.3))
                       for k in range(SWEEP_STRATA)
                       for preset in SWEEP_PRESETS]
            rng.shuffle(configs)
            out.append(configs)
        return out

    @staticmethod
    def sizes():
        lo, hi = SWEEP_NBAR
        return {"N": [states.default_truncation(lo),
                      states.default_truncation(hi)],
                "times": 3, "configs": SWEEP_STRATA * len(SWEEP_PRESETS)}

    @staticmethod
    def items():
        return SWEEP_STRATA * len(SWEEP_PRESETS)

    @staticmethod
    def _times(preset, nbar):
        """Collapse, cat-revival and revival times of one configuration."""
        root = math.sqrt(nbar)
        return np.array([2.0, math.pi * root, TWO_PI * root]) / preset.g

    def run(self, inp, timer):
        """Steps of SWEEP_STEP configs; a config's latency is its own time,
        scaled as its step."""
        results, latencies, errors = [], [], {}
        for first in range(0, len(inp), SWEEP_STEP):
            raw = timer.step(lambda first=first: self._configs(
                inp[first:first + SWEEP_STEP], first, results, errors))
            latencies += [seconds * timer.last_scale for seconds in raw]
        return {"results": results, "latencies": latencies, "errors": errors}

    def _configs(self, configs, first, results, errors):
        """Runs configs, appending to results and errors; their times."""
        latencies = []
        clock = time.perf_counter
        for index, (preset_name, nbar, phi, nb) in enumerate(configs, first):
            start = clock()
            try:
                preset = presets.PRESETS[preset_name]
                config = _experiment(preset_name, nb,
                                     states.CatSpec(intensity=nbar, phase=phi))
                times = self._times(preset, nbar)
                p_plus = observables.p_excited(config, times)
                eta = observables.eta_correlation(config, times[1])
                t_dec = observables.decoherence_time(config)
                resummed = None
                if nbar >= RESUM_MIN_NBAR:
                    resummed = resummation.resummed_p_excited(
                        resummation.ResumParams(nbar=nbar, phase=phi,
                                                max_order=RESUM_ORDER,
                                                damping=config.damping,
                                                g=preset.g),
                        times)
                results.append((config, times, p_plus, eta, t_dec, resummed))
            except Exception as exc:  # a failed config is a failed item
                results.append(exc)
                errors[index] = repr(exc)
            latencies.append(clock() - start)
        return latencies

    def check(self, inp, out):
        failed = 0
        for result in out["results"]:
            try:
                failed += not self._check_one(result)
            except Exception:  # a check that raises fails its item
                failed += 1
        return failed

    @staticmethod
    def _check_one(result):
        if isinstance(result, Exception):
            return False
        config, times, p_plus, eta, t_dec, resummed = result
        ok = (np.all((p_plus >= 0.0) & (p_plus <= 1.0))
              and (eta is None or -1.0 <= eta <= 1.0)
              and math.isfinite(t_dec) and t_dec > 0.0
              and (resummed is None or np.all(np.isfinite(resummed))))
        if not ok:
            return False
        scalar = np.array([observables.p_excited(config, t) for t in times])
        t_a = times[1]
        marginal = (observables.p_joint(config, t_a, 2.0 * t_a, "+", "+")
                    + observables.p_joint(config, t_a, 2.0 * t_a, "+", "-"))
        return bool(
            abs(observables.p_excited(config, 0.0) - 1.0) <= SUM_RULE_TOL
            and np.all(np.abs(scalar - p_plus) <= ARRAY_SCALAR_TOL)
            and abs(marginal - p_plus[1]) <= SUM_RULE_TOL)


WORKLOADS = {w.name: w for w in (Figures, Oracle, Sweep)}
