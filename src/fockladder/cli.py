"""Command-line front end: parse flags, run one experiment, write files.

Every run writes two files: the data file (CSV by default, JSON on
request) and a metadata sidecar <out>.meta.json recording the full
configuration, package version, wall time and a small result summary.
The sidecar's config block round-trips: load_sidecar_config returns a
RunConfig equal to the one that produced the run.  Data files are
deterministic, so reruns with the same configuration are
byte-identical; only the sidecar's wall time differs.

JSON files (data and sidecar) hold exactly the bytes
json.dump(payload, handle, indent=2) followed by a newline would write
for the payload with its arrays as lists, streamed leaf by leaf: the
stdlib's C encoder spells every leaf (a scalar, or a list, tuple,
1-D array or dict of scalars) as one string, written at once, and a
bands panel's right-leg density rows reuse the strings of its
left-leg rows.

Every input rule lives in RunConfig.__post_init__; argparse only turns
text into ints, floats and lists.  A config parsed from flags, built in
code or loaded from a sidecar is therefore checked by the same rules.
What the library owns is read from it, not restated: lattice's
boson-number rule, meanfield's flux bound, SystemParams.tau and the
default grids.  The JSON writer spells a numpy scalar as its .item().
Each flag is declared once: _COMMANDS lists every command with its
flags, _FLAGS every flag's type and help, and a flag's default, shown
in its help, is its RunConfig field's default.  The one per-command
override, entropy-scan's inner-zone flux grid, is kept in _COMMANDS.

Exit codes: 0 success, 1 compute or I/O error (and `validate` with any
failed check), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .experiments import (
    DEFAULT_MU_GRID,
    DEFAULT_NS,
    DEFAULT_PHI_GRID,
    GUARD_POINTS,
    ScanRecord,
    _theta_mirror,
    band_panels,
    find_mu_max,
    finite_size_extrapolation,
    scan_flux,
)
from .floquet import BranchAmbiguityError, SystemParams, solve_ground
from .lattice import _check_boson_number, rung_values
from .meanfield import _FLUX_MAX, mu_critical
from .observables import fock_density_phase
from .validation import run_invariant_suite

__all__ = ["RunConfig", "parse_args", "run", "main", "load_sidecar_config"]

# Default flux grid for entropy scans starts one step into the zone;
# the analytic entropy is singular at zero flux.
ENTROPY_PHI_MIN = float(DEFAULT_PHI_GRID[1])


def _at_least(minimum):
    return lambda value: isinstance(value, (int, np.integer)) and value >= minimum


# field -> (test, what the value must be); messages name the CLI flag.
# A test fails by returning a false value or by raising TypeError or
# ValueError, as lattice's boson-number check does.
_RULES = {
    "n": (_check_boson_number, "a positive even integer"),
    "xi": (lambda value: value >= 0.0, "nonnegative"),
    "tau": (lambda value: value > 0.0, "positive"),
    "phi_points": (_at_least(2), "an integer of at least 2"),
    "mu_points": (_at_least(3), "an integer of at least 3"),
    "ns": (lambda value: len(value) >= 3 and len(set(value)) == len(value)
           and all(map(_check_boson_number, value)),
           "at least 3 distinct positive even integers"),
    "fluxes": (lambda value: value is None or (len(value) > 0 and all(map(math.isfinite, value))),
               "'auto' or a list of finite numbers"),
    "out": (lambda value: value is None or isinstance(value, str), "a path string"),
    "format": (lambda value: value in ("csv", "json"), "csv or json"),
}


@dataclass(frozen=True)
class RunConfig:
    """One resolved CLI invocation.

    Fields a command does not consume keep their defaults, so any
    config serializes to the same shape and the sidecar round-trip is
    a plain field-by-field comparison.  The defaults are the library's:
    tau is SystemParams.tau and the grids rebuild DEFAULT_PHI_GRID and
    DEFAULT_MU_GRID, except entropy-scan's flux grid (phi_min =
    ENTROPY_PHI_MIN, one point fewer, see _COMMANDS): code that builds
    an entropy-scan config passes a positive phi_min itself.

    __post_init__ holds every input rule: a finite check on each float
    field, the per-field table _RULES and the flux and interaction grid
    bounds.  Configs built in code or loaded from sidecars pass through
    it too; a value outside a rule, or of the wrong type, raises
    ValueError naming its flag.  It first turns a list or array ns or
    fluxes into a tuple, the type a sidecar loads it back as.
    """

    command: str
    n: int = 100
    mu: float = 0.0
    xi: float = 0.5
    phi: float = 0.0
    tau: float = SystemParams.tau
    phi_min: float = float(DEFAULT_PHI_GRID[0])
    phi_max: float = float(DEFAULT_PHI_GRID[-1])
    phi_points: int = DEFAULT_PHI_GRID.size
    mu_min: float = float(DEFAULT_MU_GRID[0])
    mu_max: float = float(DEFAULT_MU_GRID[-1])
    mu_points: int = DEFAULT_MU_GRID.size
    ns: tuple = DEFAULT_NS
    fluxes: tuple | None = None
    out: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if not isinstance(self.command, str) or self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        for name in ("ns", "fluxes"):
            if isinstance(getattr(self, name), (list, np.ndarray)):
                object.__setattr__(self, name, tuple(getattr(self, name)))
        finite = [(field.name, (math.isfinite, "finite"))
                  for field in dataclasses.fields(self) if field.type == "float"]
        for name, (test, what) in finite + list(_RULES.items()):
            value = getattr(self, name)
            try:
                holds = test(value)
            except (TypeError, ValueError):  # see _RULES
                holds = False
            if not holds:
                raise ValueError(f"--{name.replace('_', '-')} must be {what}, got {value!r}")
        if self.phi_min >= self.phi_max:
            raise ValueError("--phi-min must be smaller than --phi-max")
        if self.phi_min < 0.0 or self.phi_max > _FLUX_MAX:
            raise ValueError("--phi-min and --phi-max must lie within [0, pi/2]")
        if self.command == "entropy-scan" and self.phi_min <= 0.0:
            raise ValueError("--phi-min must be positive for entropy-scan")
        if self.mu_min >= self.mu_max:
            raise ValueError("--mu-min must be smaller than --mu-max")

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data):
        unknown = sorted(set(data) - {field.name for field in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(f"unknown config field(s): {', '.join(unknown)}")
        if "command" not in data:
            raise ValueError("missing config field: command")
        return cls(**data)

    def out_path(self):
        return self.out if self.out else f"{self.command}.{self.format}"


def load_sidecar_config(path):
    """RunConfig stored in a metadata sidecar written by a previous run."""
    with open(path, encoding="utf-8") as handle:
        meta = json.load(handle)
    config = meta.get("config") if isinstance(meta, dict) else None
    if not isinstance(config, dict):
        raise ValueError(f"sidecar {path} holds no 'config' object")
    return RunConfig.from_dict(config)


# ---------------------------------------------------------------- parsing

def _int_list(text):
    return tuple(map(int, text.split(",")))


def _flux_list(text):
    return None if text.strip().lower() == "auto" else tuple(map(float, text.split(",")))


# field -> (argparse type, help).  Each flag's default is its RunConfig
# field's, or its command's override in _COMMANDS, and the help gets
# "(default ...)" from that value unless it names one symbolically.
_FLAGS = {
    "n": (int, "boson number, positive even"),
    "ns": (_int_list, "comma-separated even boson numbers"),
    "mu": (float, "scaled boson-boson interaction"),
    "xi": (float, "impurity-BEC coupling ratio"),
    "tau": (float, "driving period in units of 1/J"),
    "phi": (float, "flux in rad"),
    "phi_min": (float, "lowest flux in rad"),
    "phi_max": (float, "highest flux in rad (default pi/2)"),
    "phi_points": (int, "flux grid size"),
    "mu_min": (float, "lowest interaction"),
    "mu_max": (float, "highest interaction"),
    "mu_points": (int, "interaction grid size"),
    "fluxes": (_flux_list, "comma-separated fluxes in rad, or 'auto' for "
                           "phi_c/2, phi_c, 3 phi_c/2 (default auto)"),
    "out": (str, "output path (default <command>.<format>)"),
    "format": (str, "data file format, csv or json"),
}


def _shown(value):
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return format(value, "g") if isinstance(value, float) else str(value)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fockladder",
        description="Fock-state ladder simulations of a driven bosonic "
                    "junction coupled to an impurity.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    defaults = {field.name: field.default for field in dataclasses.fields(RunConfig)}
    for command, (_, summary, fields, overrides) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        names = fields.split() + ["out", "format"]
        for name in names:
            kind, text = _FLAGS[name]
            default = overrides.get(name, defaults[name])
            if "(default" not in text:
                text += f" (default {_shown(default)})"
            if name == "phi_points" and "mu_points" in names:  # a find_mu_max command
                text += f"; each flux-peak search thins it to at most {GUARD_POINTS} guard fluxes"
            p.add_argument("--" + name.replace("_", "-"), type=kind, default=default, help=text)
    return parser


def parse_args(argv=None):
    """Parse argv into a RunConfig; usage errors exit with code 2."""
    parser = _build_parser()
    try:
        return RunConfig(**vars(parser.parse_args(argv)))
    except ValueError as exc:
        parser.error(str(exc))


# ---------------------------------------------------------------- writers

def _format_cell(value):
    if value is None:
        return ""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(cell) for cell in row])


def _write_json(path, payload):
    """Write payload as json.dump(payload, indent=2) plus a newline would.

    The stdlib encoder yields one chunk per token in pure Python whenever
    indent is set; here the stdlib's C encoder spells each leaf (a
    scalar, or a list, tuple or dict of scalars) in one call, and the
    containers above the leaves are walked, so a document is never held
    whole.  ndarrays are written as their .tolist() would be, walked
    along their first axis, and any other numpy scalar as its .item();
    dict keys must be strings.
    """
    with open(path, "w", encoding="utf-8") as handle:
        _dump_json(payload, handle.write, "\n")
        handle.write("\n")


@dataclass(frozen=True)
class _MirroredLegs:
    # The block np.stack([left, left[:, mirror]]) of a non-empty left,
    # written as json writes that block, with each left value formatted
    # once: a right row is its left row's text split and rejoined.
    left: np.ndarray
    mirror: np.ndarray

    def dump(self, write, pad):
        leg, row = pad + "  ", pad + "    "
        head, separator, tail = "[" + row + "  ", "," + row + "  ", row + "]"
        texts = [_json_flat(values.tolist(), row + "  ", row) for values in self.left]
        mirror = self.mirror.tolist()

        def mirrored(text):
            items = text[len(head):-len(tail)].split(separator)
            return head + separator.join(map(items.__getitem__, mirror)) + tail

        for leg_index, rows in enumerate((texts, map(mirrored, texts))):
            write(("," if leg_index else "[") + leg + "[")
            for index, text in enumerate(rows):
                write(("," if index else "") + row + text)
            write(leg + "]")
        write(pad + "]")


_CONTAINERS = (dict, list, tuple, np.ndarray, _MirroredLegs)


def _dump_json(value, write, pad):
    # pad is the newline plus indent of the line value starts on.
    inner = pad + "  "
    if isinstance(value, _MirroredLegs):
        return value.dump(write, pad)
    if isinstance(value, np.ndarray):
        value = value.tolist() if value.ndim == 1 else list(value)
    if isinstance(value, dict) and any(isinstance(item, _CONTAINERS) for item in value.values()):
        write("{")
        for index, (key, item) in enumerate(value.items()):
            write(("," if index else "") + inner + encode_basestring_ascii(key) + ": ")
            _dump_json(item, write, inner)
        write(pad + "}")
    elif isinstance(value, (list, tuple)) and any(isinstance(item, _CONTAINERS) for item in value):
        write("[")
        for index, item in enumerate(value):
            write(("," if index else "") + inner)
            _dump_json(item, write, inner)
        write(pad + "]")
    else:
        write(_json_flat(value, inner, pad))


@lru_cache(maxsize=None)
def _encoder(inner):
    # json writes np.float64 as the float it is, and numpy integers and
    # bools, which are not ints, as their .item().
    return json.JSONEncoder(separators=("," + inner, ": "), default=np.generic.item).encode


def _json_flat(value, inner, pad):
    # A leaf in one C-encoder call; a non-empty container is then broken
    # over lines as indent=2 breaks it, its items already one per line.
    text = _encoder(inner)(value)
    if isinstance(value, (dict, list, tuple)) and value:
        return text[0] + inner + text[1:-1] + pad + text[-1]
    return text


# ---------------------------------------------------------------- commands

def _cmd_bands(config):
    panels = band_panels(config.n, config.xi, mu=config.mu, tau=config.tau,
                         flux_list=config.fluxes)
    rungs = rung_values(config.n)
    header = [
        "flux [rad]", "theta [rad]", "e_lower [J]", "e_upper [J]", "rung [n]",
        "ground_density_left [prob]", "ground_density_right [prob]",
        "ground_phase_left [rad]", "ground_phase_right [rad]",
    ]
    rows = []
    phases = [panel.ground_phase.tolist() for panel in panels]
    for panel, phase in zip(panels, phases):
        for k in range(config.n + 1):
            rows.append([
                panel.flux, panel.thetas[k], panel.e_lower[k], panel.e_upper[k],
                rungs[k], panel.ground_density[0, k], panel.ground_density[1, k],
                phase[0][k], phase[1][k],
            ])
    # A JSON panel is the BandPanel, field by field: its right-leg density is
    # the left leg's, mirrored, and its masked ground phase rows hold None.
    payload = None if config.format == "csv" else {
        "panels": [{**vars(panel), "ground_phase": phase,
                    "density": _MirroredLegs(panel.density[0], _theta_mirror(config.n))}
                   for panel, phase in zip(panels, phases)]
    }
    result = {
        "fluxes": [panel.flux for panel in panels],
        "ground_quasienergies": [panel.ground_quasienergy for panel in panels],
    }
    fluxes = ", ".join(f"{panel.flux:.6g}" for panel in panels)
    return header, rows, payload, result, [f"bands: {len(panels)} panels at flux {fluxes}"]


def _cmd_ground(config):
    params = SystemParams(n=config.n, mu=config.mu, xi=config.xi,
                          phi=config.phi, tau=config.tau)
    eps0, state = solve_ground(params)
    fock = fock_density_phase(state)
    record = ScanRecord.from_state(params, state)
    header = ["leg [m]", "rung [n]", "density [prob]", "phase [rad]"]
    rungs = rung_values(config.n)
    phase = fock.phase.tolist()
    rows = []
    for m_index, m in enumerate((-1, 1)):
        for k in range(config.n + 1):
            rows.append([m, rungs[k], fock.density[m_index, k], phase[m_index][k]])
    result = {"quasienergy": float(eps0), **vars(record)}
    del result["params"]
    line = (f"ground: quasienergy={eps0:.10g} jc={record.jc_numeric:.10g} "
            f"entropy={record.entropy_numeric:.10g}")
    return header, rows, None, result, [line]


def _phi_grid(config):
    return np.linspace(config.phi_min, config.phi_max, config.phi_points)


def _mu_grid(config):
    return np.linspace(config.mu_min, config.mu_max, config.mu_points)


# The flux scans write one observable pair each of the same scan_flux
# records: command -> (observable, unit, summary label, result keys in
# order, each with its column in the [phi, numeric, analytic] row).
_FLUX_SCANS = {
    "current-scan": ("jc", "2J_C/(N J)", "peak jc", (("peak_phi", 0), ("peak_jc", 1))),
    "entropy-scan": ("entropy", "nats", "max entropy", (("max_entropy", 1), ("argmax_phi", 0))),
}


def _cmd_flux_scan(config):
    name, unit, label, keys = _FLUX_SCANS[config.command]
    records = scan_flux(config.n, config.mu, config.xi, tau=config.tau,
                        phi_grid=_phi_grid(config))
    header = ["phi [rad]", f"{name}_numeric [{unit}]", f"{name}_analytic [{unit}]"]
    rows = [[r.params.phi, getattr(r, f"{name}_numeric"), getattr(r, f"{name}_analytic")]
            for r in records]
    best = max(rows, key=lambda row: row[1])
    result = dict([(key, best[column]) for key, column in keys], points=len(rows))
    line = (f"{config.command}: {len(rows)} fluxes, "
            f"{label}={best[1]:.10g} at phi={best[0]:.10g}")
    return header, rows, None, result, [line]


def _cmd_mu_scan(config):
    mu_max, max_jc, scan_rows = find_mu_max(config.n, config.xi, tau=config.tau,
                                            mu_grid=_mu_grid(config),
                                            phi_grid=_phi_grid(config))
    header = ["mu [dimensionless]", "peak_phi [rad]", "peak_jc [2J_C/(N J)]"]
    rows = [list(row) for row in scan_rows]
    result = {
        "mu_max": mu_max,
        "max_jc": max_jc,
        "mu_c": mu_critical(config.xi),
    }
    line = (f"mu-scan: mu_max={mu_max:.10g} max_jc={max_jc:.10g} "
            f"(mu_c={result['mu_c']:.10g})")
    return header, rows, None, result, [line]


def _cmd_fss(config):
    fit, mu_maxes = finite_size_extrapolation(
        ns=config.ns, xi=config.xi, tau=config.tau, mu_grid=_mu_grid(config),
        phi_grid=_phi_grid(config))
    header = ["n [bosons]", "inverse_n [1/bosons]",
              "mu_max [dimensionless]", "abs_mu_diff [dimensionless]"]
    rows = [[n, inverse_n, mu_max, diff]
            for n, mu_max, (inverse_n, diff) in zip(config.ns, mu_maxes, fit.points)]
    result = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "mu_c": mu_critical(config.xi),
    }
    line = (f"fss: intercept={fit.intercept:.10g} slope={fit.slope:.10g} "
            f"r_squared={fit.r_squared:.10g}")
    return header, rows, None, result, [line]


def _cmd_validate(config):
    checks = run_invariant_suite()
    header = ["check [name]", "passed [bool]", "detail [text]"]
    rows = [[c.name, "true" if c.passed else "false", c.detail] for c in checks]
    failed = [c.name for c in checks if not c.passed]
    result = {
        "total": len(checks),
        "passed": len(checks) - len(failed),
        "failed_names": failed,
        "all_passed": not failed,
    }
    lines = [
        f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in checks
    ]
    lines.append(f"{result['passed']}/{result['total']} checks passed")
    return header, rows, None, result, lines


_PHI_GRID = "phi_min phi_max phi_points"
_MU_GRID = "mu_min mu_max mu_points"

# The one command table: command -> (handler, help line, the RunConfig
# fields it takes as flags, in help order, before --out and --format,
# and the flag defaults where they differ from RunConfig's).
_COMMANDS = {
    "bands": (_cmd_bands, "band curves, phase densities and ground strips per flux",
              "n mu xi tau fluxes", {}),
    "ground": (_cmd_ground, "ground-state site data and observables at one point",
               "n mu xi tau phi", {}),
    "current-scan": (_cmd_flux_scan, "chiral current versus flux",
                     f"n mu xi tau {_PHI_GRID}", {}),
    "mu-scan": (_cmd_mu_scan, "peak chiral current versus interaction",
                f"n xi tau {_PHI_GRID} {_MU_GRID}", {}),
    "fss": (_cmd_fss, "finite-size extrapolation of the current maximum",
            f"ns xi tau {_PHI_GRID} {_MU_GRID}", {}),
    # The analytic entropy is singular at zero flux: start one step in.
    "entropy-scan": (_cmd_flux_scan, "impurity entanglement entropy versus flux",
                     f"n xi tau {_PHI_GRID}",
                     {"phi_min": ENTROPY_PHI_MIN, "phi_points": DEFAULT_PHI_GRID.size - 1}),
    "validate": (_cmd_validate, "run the cross-module invariant suite", "", {}),
}


def run(config):
    """Execute one RunConfig; returns the process exit code."""
    out_path = config.out_path()
    directory = os.path.dirname(os.path.abspath(out_path))
    if not os.path.isdir(directory) or not os.access(directory, os.W_OK):
        print(f"fockladder: error: output directory {directory!r} is not writable",
              file=sys.stderr)
        return 1

    start = time.perf_counter()
    try:
        header, rows, payload, result, lines = _COMMANDS[config.command][0](config)
    except (ValueError, ArithmeticError, MemoryError, np.linalg.LinAlgError,
            BranchAmbiguityError) as exc:
        print(f"fockladder: error: {exc}", file=sys.stderr)
        return 1
    wall_time = time.perf_counter() - start

    try:
        if config.format == "csv":
            _write_csv(out_path, header, rows)
        else:
            if payload is None:
                payload = {"columns": header, "rows": rows}
            _write_json(out_path, payload)
        _write_json(out_path + ".meta.json", {"version": __version__, "config": config.to_dict(),
                                              "wall_time_s": round(wall_time, 6), "result": result})
    except OSError as exc:
        print(f"fockladder: error: {exc}", file=sys.stderr)
        return 1

    for line in lines:
        print(line)
    print(f"wrote {out_path} and {out_path}.meta.json")

    if config.command == "validate" and not result["all_passed"]:
        return 1
    return 0


def main(argv=None):
    """Console entry point."""
    return run(parse_args(argv))
