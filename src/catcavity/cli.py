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
import itertools
import math
import sys
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np

from .errors import (ConfigurationError, DegenerateCatError, _count,
                     _nonnegative, _parameter)
from .observables import ExperimentConfig, eta_correlation, revival_curves
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


def _metadata(**fields):
    """The `#` line of a CSV: key=value for each field in order, a float as
    `:g` and anything else as `str`."""
    return "# " + " ".join(
        f"{key}={value:g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in fields.items())


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
    call.  One printf-style call formats every cell, by the first row's
    layout: `%s` for text, `%.12g` (the text of `format(x, ".12g")`) for a
    number.  A line reading `nan` is formatted again by `_fmt`, which
    leaves an undefined entry empty.  Rows of Python floats (`tolist()`)
    format faster than rows of NumPy scalars, into the same text."""
    rows = list(rows)
    template = ",".join("%s" if isinstance(cell, str) else "%.12g"
                        for cell in rows[0])
    body = "\n".join([template] * len(rows)) % tuple(
        itertools.chain.from_iterable(rows))
    if "nan" in body:
        body = "\n".join(",".join(map(_fmt, row)) if "nan" in line else line
                         for row, line in zip(rows, body.split("\n")))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{metadata}\n{','.join(header)}\n{body}\n")
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
    damping = preset.damping(settings["nb"])
    fields = {"coherent": coherent_distribution(nbar, default_truncation(nbar)),
              "cat": CatSpec(intensity=nbar, phase=settings["phi"])}
    return {tag: ExperimentConfig(jc=preset.jc(), damping=damping,
                                  initial_field=field)
            for tag, field in fields.items()}


def _write_figure(figure_id, preset, settings, out_dir):
    """Write the files of one preset of a figure: for fig3 one
    `eta_correlation` file over both fields, for fig1 and fig2 one
    `revival_curves` file per field."""
    axis_name, axis, times = _time_axis(settings, preset)
    configs = _field_configs(preset, settings)
    meta = dict(figure=figure_id, preset=preset.name, kappa=preset.kappa,
                g=preset.g, **{key: settings[key] for key in NUMBER_KEYS},
                version=VERSION)
    if figure_id == "fig3":
        files = [(f"fig3_{preset.name}", meta, ("eta_coherent", "eta_cat"),
                  eta_correlation(configs.values(), times))]
    else:
        curves = revival_curves(configs.values(), times)
        files = [(f"{figure_id}_{tag}", dict(meta, field=tag),
                  ("P_plus", "P_plusplus"), [curve[row] for curve in curves])
                 for row, tag in enumerate(configs)]
    written = []
    for name, fields, columns, values in files:
        rows = zip(axis.tolist(), *(column.tolist() for column in values))
        written.append(_write_csv(out_dir / f"{name}.csv", _metadata(**fields),
                                  (axis_name, *columns), rows))
    return written


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
        written += _write_figure(figure_id, preset, local, out_dir)
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

    Every row is a k = 0 entry, so the run propagates the k = 0 block alone,
    on its Hermitian closure, and reads the rows from that closure; no
    block of k != 0 is built (see `oracle.integrate_trajectory`).  The
    `catcavity` logger records the truncation, the size of the one block
    propagated, 4 N + 2, the number of expm builds and the size of each
    matrix exponentiated, 3 N + 2.
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
    damping = preset.damping(args.nb)
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
    meta = _metadata(preset=preset.name, kappa=preset.kappa, g=preset.g,
                     nbar=nbar, phi=args.phi, nb=args.nb, t_max=t_max,
                     samples=args.samples, version=VERSION)
    return [_write_csv(path, meta, ("t", "observable", "value"), rows)]


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
        if args.command == "validate":
            return run_validate(args.level)
        written = (run_figure(args.id, args) if args.command == "figure"
                   else run_oracle(args))
        for path in written:
            print(path)
        return 0
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
