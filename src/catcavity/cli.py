"""Command-line harness: figure CSVs, validation suites, raw oracle dumps.

Figures are emitted as plain CSV (comma separated, `.` decimal) with a header
row preceded by one `#` metadata comment recording every parameter and the
package version, so any file can be traced back to its configuration.  The
thermal occupation has no physically blessed default and must be supplied
per run, on the command line or in a config file.

Each subcommand imports what it runs: `figure` the closed form alone,
`validate --level fast` the closed-form checks, and only `validate --level
full` and `oracle` the master-equation oracle with `scipy.linalg`.
"""

import argparse
import configparser
import functools
import math
import sys
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np

from .errors import (ConfigurationError, DegenerateCatError, _count,
                     _nonnegative, _parameter)
from .observables import ExperimentConfig, eta_correlation, revival_curves
from .params import DampingParams
from .presets import PRESETS
from .states import CatSpec, coherent_distribution, default_truncation

try:
    VERSION = version("catcavity")
except PackageNotFoundError:
    VERSION = "0.dev"

#: The settings a figure's config-file section or flags may set: text, then
#: numbers.
TEXT_KEYS = ("preset", "out")
NUMBER_KEYS = ("nbar", "phi", "nb", "gt_max", "gt_step")

#: The rule of `errors`, and its bound, that checks each number setting.
NUMBER_RULES = {"nbar": (_parameter, 0.0), "gt_step": (_parameter, 0.0),
                "phi": (_parameter,), "nb": (_nonnegative,),
                "gt_max": (_nonnegative,), "t_max": (_nonnegative,),
                "samples": (_count, 1)}

#: The presets each figure writes unless a preset is given.
FIGURE_PRESETS = {
    "fig1": ("benson97",),
    "fig2": ("brune96",),
    "fig3": ("benson97", "brune96"),
}


def _load_config_section(path, section):
    """Read flat key = value overrides for one section of a config file."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigurationError(f"config file not found: {path}")
    if section not in parser:
        return {}
    return dict(parser[section])


def _as_configuration_error(check, *args):
    """`check(*args)`, a check of the library's own; the ValueError or
    DegenerateCatError it raises becomes the exit-2 ConfigurationError."""
    try:
        return check(*args)
    except (ValueError, DegenerateCatError) as err:
        raise ConfigurationError(str(err)) from None


def _check_numbers(values):
    """Check each number setting given by the rule of `errors` that the
    library applies to the same value; nb has no default, so it must be
    given."""
    if values["nb"] is None:
        raise ConfigurationError(
            "thermal occupation nb is required and has no default: the "
            "published operating points do not pin it down, so pass --nb "
            "(0 for zero temperature, e.g. 0.1 for a cold microwave cavity)"
            " or set nb in a figure's config file")
    for name, value in values.items():
        if value is not None:
            rule, *bound = NUMBER_RULES[name]
            _as_configuration_error(rule, value, name, *bound)


def _merge_settings(args, figure_id):
    """Defaults, then config-file section, then explicit CLI flags."""
    settings = {"preset": None, "nbar": None, "gt_max": None, "phi": 0.0,
                "gt_step": 0.1, "nb": None, "out": ".", "si_times": False}
    if args.config:
        raw = _load_config_section(args.config, figure_id)
        unknown = sorted(set(raw) - {*TEXT_KEYS, *NUMBER_KEYS})
        if unknown:
            raise ConfigurationError(
                f"unknown key(s) {', '.join(unknown)} in [{figure_id}] of "
                f"{args.config}; accepted keys: "
                + ", ".join(TEXT_KEYS + NUMBER_KEYS))
        for key in TEXT_KEYS:
            if key in raw:
                settings[key] = raw[key]
        for key in NUMBER_KEYS:
            if key in raw:
                try:
                    settings[key] = float(raw[key])
                except ValueError:
                    raise ConfigurationError(
                        f"{key} = {raw[key]!r} in {args.config} is not a "
                        "number") from None
    for key in TEXT_KEYS + NUMBER_KEYS:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    if args.si_times:
        settings["si_times"] = True
    _check_numbers({key: settings[key] for key in NUMBER_KEYS})
    if settings["preset"] is not None and settings["preset"] not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {settings['preset']!r}; choose one of "
            + ", ".join(sorted(PRESETS)))
    return settings


def _metadata_line(figure_id, preset, settings, extra=""):
    parts = [
        f"figure={figure_id}",
        f"preset={preset.name}",
        f"kappa={preset.kappa:g}",
        f"g={preset.g:g}",
        f"nbar={settings['nbar']:g}",
        f"phi={settings['phi']:g}",
        f"nb={settings['nb']:g}",
        f"gt_max={settings['gt_max']:g}",
        f"gt_step={settings['gt_step']:g}",
        f"version={VERSION}",
    ]
    if extra:
        parts.append(extra)
    return "# " + " ".join(parts)


def _fmt(value):
    """A text cell as it is, an empty cell for an undefined (NaN) entry, and
    a number with 12 significant digits otherwise (`format(x, ".12g")`)."""
    if isinstance(value, str):
        return value
    if math.isnan(value):
        return ""
    return format(value, ".12g")


def _write_csv(path, metadata, header, rows):
    """Write the metadata line, the header and one line per row in one
    call.  Rows of Python floats (`tolist()`) format faster than rows of
    NumPy scalars, into the same text."""
    lines = [metadata, ",".join(header)]
    lines += [",".join(map(_fmt, row)) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _time_axis(settings, preset):
    """(column name, column values, times in seconds) of a figure's axis."""
    gts = np.arange(0.0, settings["gt_max"] + 0.5 * settings["gt_step"],
                    settings["gt_step"])
    times = gts / preset.g
    return ("t", times, times) if settings["si_times"] else ("gt", gts, times)


def _field_configs(preset, settings):
    """{"coherent": config, "cat": config} at the settings' nbar, phi and nb."""
    nbar = settings["nbar"]
    damping = DampingParams(kappa=preset.kappa, n_thermal=settings["nb"])
    fields = {"coherent": coherent_distribution(nbar, default_truncation(nbar)),
              "cat": CatSpec(intensity=nbar, phase=settings["phi"])}
    return {tag: ExperimentConfig(jc=preset.jc(), damping=damping,
                                  initial_field=field)
            for tag, field in fields.items()}


def _revival_figure(figure_id, preset, settings, out_dir):
    written = []
    axis_name, axis, times = _time_axis(settings, preset)
    configs = _field_configs(preset, settings)
    curves = revival_curves(configs.values(), times)
    for row, tag in enumerate(configs):
        rows = zip(axis.tolist(), *(curve[row].tolist() for curve in curves))
        path = out_dir / f"{figure_id}_{tag}.csv"
        meta = _metadata_line(figure_id, preset, settings, extra=f"field={tag}")
        _write_csv(path, meta, (axis_name, "P_plus", "P_plusplus"), rows)
        written.append(path)
    return written


def _eta_figure(preset, settings, out_dir):
    configs = _field_configs(preset, settings)
    axis_name, axis, times = _time_axis(settings, preset)
    rows = zip(axis.tolist(), *eta_correlation(
        [configs["coherent"], configs["cat"]], times).tolist())
    path = out_dir / f"fig3_{preset.name}.csv"
    meta = _metadata_line("fig3", preset, settings)
    _write_csv(path, meta, (axis_name, "eta_coherent", "eta_cat"), rows)
    return [path]


def run_figure(figure_id, args):
    """Write the figure for each of its presets, or for the given one only;
    an unset nbar or gt_max falls back to each preset's own."""
    settings = _merge_settings(args, figure_id)
    names = ((settings["preset"],) if settings["preset"]
             else FIGURE_PRESETS[figure_id])
    runs = []
    for name in names:
        local = dict(settings, preset=name)
        for key in ("nbar", "gt_max"):
            if local[key] is None:
                local[key] = getattr(PRESETS[name], key)
        _as_configuration_error(CatSpec(
            intensity=local["nbar"], phase=local["phi"]).refuse_degenerate)
        runs.append((PRESETS[name], local))
    out_dir = Path(settings["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for preset, local in runs:
        if figure_id == "fig3":
            written += _eta_figure(preset, local, out_dir)
        else:
            written += _revival_figure(figure_id, preset, local, out_dir)
    return written


def run_validate(level):
    from .validation import fast_checks, full_checks

    results = full_checks() if level == "full" else fast_checks()
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed ({level} suite)")
    return 1 if failed else 0


def run_oracle(args):
    """Integrate the master equation and dump observables in long format.

    The `catcavity` logger records the truncation, the size of the one
    block propagated, k = 0 with 4 N + 2 states, the number of expm builds
    and the size of each matrix exponentiated, 3 N + 2 on its Hermitian
    closure (see `oracle.integrate_trajectory`).
    """
    from . import oracle

    _check_numbers({"nbar": args.nbar, "phi": args.phi, "nb": args.nb,
                    "t_max": args.t_max, "samples": args.samples})
    preset = PRESETS[args.preset]
    nbar = args.nbar if args.nbar is not None else 4.0
    _as_configuration_error(
        CatSpec(intensity=nbar, phase=args.phi).refuse_degenerate)
    trunc = default_truncation(nbar)
    t_max = args.t_max if args.t_max is not None else 0.5 / preset.kappa
    damping = DampingParams(kappa=preset.kappa, n_thermal=args.nb)
    rho0 = oracle.build_initial_state(CatSpec(intensity=nbar, phase=args.phi),
                                      trunc)
    times = np.linspace(0.0, t_max, args.samples)
    traj = oracle.integrate_trajectory(rho0, preset.jc(), damping, times)
    obs = oracle.oracle_observables(traj, preset.jc())

    out_dir = Path(args.out if args.out is not None else ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "oracle.csv"
    rows = []
    for i, t in enumerate(obs.times):
        rows.append((float(t), "p_plus", float(obs.p_plus[i])))
        rows.append((float(t), "f_ground", float(obs.f_ground[i])))
        for n in range(trunc):
            rows.append((float(t), f"f_{n}", float(obs.f[i, n])))
    meta = (f"# preset={preset.name} kappa={preset.kappa:g} g={preset.g:g} "
            f"nbar={nbar:g} phi={args.phi:g} nb={args.nb:g} t_max={t_max:g} "
            f"samples={args.samples} version={VERSION}")
    _write_csv(path, meta, ("t", "observable", "value"), rows)
    return [path]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="catcavity",
        description="Atom revival, correlation and decoherence curves for a "
                    "damped cavity field",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="write figure data as CSV")
    fig.add_argument("id", choices=sorted(FIGURE_PRESETS))
    fig.add_argument("--preset", choices=sorted(PRESETS), default=None,
                     help="write only this preset (default: the figure's own)")
    fig.add_argument("--nbar", type=float, default=None,
                     help="mean photon number of the injected field")
    fig.add_argument("--phi", type=float, default=None,
                     help="cat superposition phase (0 = even cat)")
    fig.add_argument("--nb", type=float, default=None,
                     help="thermal occupation of the cavity environment "
                          "(required, no default)")
    fig.add_argument("--gt-max", dest="gt_max", type=float, default=None)
    fig.add_argument("--gt-step", dest="gt_step", type=float, default=None)
    fig.add_argument("--out", default=None, help="output directory")
    fig.add_argument("--si-times", action="store_true",
                     help="emit times in seconds instead of dimensionless gt")
    fig.add_argument("--config", default=None,
                     help="INI-style config file with a section per figure")

    val = sub.add_parser("validate", help="run the self-check suite")
    val.add_argument("--level", choices=("fast", "full"), default="fast")

    orc = sub.add_parser("oracle", help="dump raw master-equation observables")
    orc.add_argument("--preset", choices=sorted(PRESETS), default="benson97")
    orc.add_argument("--nbar", type=float, default=None)
    orc.add_argument("--phi", type=float, default=0.0)
    orc.add_argument("--nb", type=float, default=None)
    orc.add_argument("--t-max", dest="t_max", type=float, default=None,
                     help="final time in seconds")
    orc.add_argument("--samples", type=int, default=21)
    orc.add_argument("--out", default=None)
    return parser


@functools.cache
def _parser():
    """The one parser `main` reuses: a parse keeps no state in it."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "figure":
            written = run_figure(args.id, args)
            for path in written:
                print(path)
            return 0
        if args.command == "validate":
            return run_validate(args.level)
        written = run_oracle(args)
        for path in written:
            print(path)
        return 0
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
