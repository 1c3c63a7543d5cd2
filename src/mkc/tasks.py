"""Task dispatch: turn a validated RunConfig into a tabular payload.

Every task produces {"columns": [...], "rows": Rows} with plain
float/int/str cells, in an order fixed by the configuration alone, so the
serialized output is reproducible byte for byte.  Rows holds the rows as
blocks of shared and column cells (one block per sweep point and boundary
condition, say), so no task builds one list per output row; it still
reads as the list of rows it stands for: len() counts the rows and
iteration yields each as a plain list.  A spectrum closed under E -> -E
goes in as a ChiralLevels column, its magnitudes held once.
"""

import numpy as np

from . import boundary, disorder, topology
from .config import RunConfig
from .errors import ConfigError
from .lattice import (
    SlabLattice,
    _with_mu,
    levels,
    low_energy_vs_length,
    spectrum_vs_mu,
    zero_subspace,
)
from .models import (
    PARALLEL,
    dirac_expansion_parallel,
    group_velocity_perp,
    parameter_scale,
    symmetry_check,
)
from .tolerance import SYMMETRY_TOL


class ChiralLevels:
    """A column of the ascending levels of a spectrum closed under E -> -E.

    It is built from the spectrum's ascending magnitudes, one per +-E pair
    (lattice.levels), as +0.0 and up: np.abs turns a -0.0 from LAPACK
    into 0.0.  Iterating it yields the full ascending floats,
    -magnitudes[::-1] then magnitudes.  n_modes keeps the n_modes levels
    nearest zero in whole +-E pairs: the (n_modes + 1) // 2 smallest
    magnitudes negated and the n_modes // 2 smallest, so a cut through a
    group of equal |E| never depends on how rounding orders the group.
    """

    def __init__(self, magnitudes, n_modes=None):
        self.magnitudes = np.abs(magnitudes).tolist()
        m = len(self.magnitudes)
        self.negatives = m if n_modes is None else min(m, (n_modes + 1) // 2)
        self.positives = m if n_modes is None else min(m, n_modes // 2)

    def __len__(self):
        return self.negatives + self.positives

    def __iter__(self):
        m = self.magnitudes
        yield from (-v for v in reversed(m[: self.negatives]))
        yield from m[: self.positives]


class Rows:
    """A task's output rows, stored as blocks that share cells.

    add(*cells) appends one block.  A cell that is a list, a range or a
    ChiralLevels is a column cell, holding one value per row of the block;
    any other cell is a shared cell, the same value on every row.  The
    columns of a block have one length, its row count; a block without
    columns is one row.
    """

    def __init__(self):
        self.blocks = []    # (cells, column positions)
        self._count = 0

    def add(self, *cells):
        cols = tuple(
            k for k, c in enumerate(cells) if isinstance(c, (list, range, ChiralLevels))
        )
        sizes = {len(cells[k]) for k in cols}
        if len(sizes) > 1:
            raise ValueError(f"the columns of one block differ in length: {sorted(sizes)}")
        self.blocks.append((cells, cols))
        self._count += sizes.pop() if sizes else 1

    def __len__(self):
        return self._count

    def __iter__(self):
        for cells, cols in self.blocks:
            for values in zip(*(cells[k] for k in cols)) if cols else [()]:
                row = list(cells)
                for k, v in zip(cols, values):
                    row[k] = v
                yield row

    def __getitem__(self, i):
        """Row i as a live list, so editing it edits the table; the table
        is split into one block per row first."""
        if any(cols for _, cols in self.blocks):
            self.blocks = [(row, ()) for row in self]
        return self.blocks[i][0]


def _task_spectrum(cfg):
    magnitudes = levels(cfg.model, cfg.lattice)
    rows = Rows()
    rows.add(range(2 * magnitudes.size), ChiralLevels(magnitudes))
    return {"columns": ["index", "energy"], "rows": rows}


def _task_sweep_mu(cfg):
    opt = cfg.options
    grid = np.linspace(opt["mu-min"], opt["mu-max"], opt["mu-points"])
    recs = spectrum_vs_mu(cfg.model, grid, opt["link"], cfg.lattice)
    rows = Rows()
    for rec in recs:
        mu = rec["mu"]
        mu2 = "" if cfg.kind == "parent" else _with_mu(cfg.model, mu, opt["link"]).p2.mu
        for bc in ("obc", "pbc"):
            levels = ChiralLevels(rec[bc], opt["n-modes"])
            rows.add(mu, mu2, bc, range(len(levels)), levels)
    return {"columns": ["mu1", "mu2", "bc", "level_index", "energy"], "rows": rows}


def _task_sweep_length(cfg):
    opt = cfg.options
    lengths = range(opt["l-min"], opt["l-max"] + 1, opt["l-step"])
    rows = Rows()
    for rec in low_energy_vs_length(cfg.model, lengths, bc=opt["bc"]):
        modes = ChiralLevels(rec["levels"], opt["n-modes"])
        rows.add(rec["L"], range(len(modes)), modes, rec["splitting"])
    return {"columns": ["L", "level_index", "energy", "splitting"], "rows": rows}


def _task_wannier(cfg):
    if cfg.kind == "parent":
        spectra = [topology.wannier_center_parent(cfg.model)]
    elif cfg.kind == "mkc-parallel":
        spectra = [topology.wannier_centers_parallel(cfg.model)]
    else:
        fixed = cfg.options["fixed-momentum"]
        spectra = [topology.wannier_centers_perp(cfg.model, d, fixed) for d in ("x", "y")]
    rows = Rows()
    for ws in spectra:
        rows.add(ws.path, range(len(ws.centers)), [float(c) for c in ws.centers])
    return {"columns": ["loop", "index", "center"], "rows": rows}


def _task_winding(cfg):
    rows = Rows()
    components = ["component-1", "component-2"]
    if cfg.kind == "parent":
        rows.add("k", "parent", "", topology.parent_winding(cfg.model))
    elif cfg.kind == "mkc-parallel":
        rows.add("k", components, "", list(topology.component_winding_parallel(cfg.model)))
    else:
        lat = cfg.lattice
        table = topology.component_winding_perp(cfg.model, lat.Lx, lat.Ly)
        for loop, key in (("kx", "rows"), ("ky", "columns")):
            for rec in table[key]:
                rows.add(loop, components, f"{rec['fixed']:.17g}", [rec["w1"], rec["w2"]])
    return {"columns": ["loop", "component", "fixed_momentum", "winding"], "rows": rows}


def _point_rows(points):
    rows = Rows()
    rows.add(
        [float(mu) for mu in points.mu_values],
        [int(d) for d in points.degeneracies],
        list(points.provenance),
    )
    return {"columns": ["mu", "degeneracy", "provenance"], "rows": rows}


def _task_majorana_points(cfg):
    lat = cfg.lattice
    if cfg.kind == "parent":
        return _point_rows(boundary.kc_majorana_points(cfg.model, lat.L))
    if cfg.kind == "mkc-parallel":
        p1, p2 = cfg.model.p1, cfg.model.p2
        tol = SYMMETRY_TOL * parameter_scale(p1, p2)
        if max(abs(p1.t + p2.t), abs(p1.delta - p2.delta), abs(p1.mu - p2.mu)) > tol:
            raise ConfigError(
                "task majorana-points needs the sign-mixed child class "
                "(t2 = -t1, delta2 = delta1, mu2 = mu1); "
                "use the quantization task for generic parents"
            )
        return _point_rows(
            boundary.mkc_parallel_majorana_points(p1.t, p1.delta, lat.L)
        )
    return _point_rows(boundary.perp_obc_gapless_points(cfg.model, lat.Lx, lat.Ly))


def _task_quantization(cfg):
    opt = cfg.options
    mu_range = None if opt["mu-min"] is None else (opt["mu-min"], opt["mu-max"])
    p1, p2 = cfg.model.p1, cfg.model.p2
    return _point_rows(boundary.quantization_points(p1, p2, cfg.lattice.L, mu_range))


def _task_density(cfg):
    lat = cfg.lattice
    w = zero_subspace(cfg.model, lat, tol=cfg.options["zero-tol"]).weights.tolist()
    rows = Rows()
    if isinstance(lat, SlabLattice):
        for i in range(lat.Lx):
            rows.add(i + 1, range(1, lat.Ly + 1), w[i])
    else:
        rows.add(range(1, len(w) + 1), 0, w)
    return {"columns": ["x", "y", "weight"], "rows": rows}


def _task_disorder(cfg):
    opt = cfg.options
    channels = None
    if opt["channel"] is not None:
        channels = [opt["channel"]]
    mu_values = None
    if opt["mu-min"] is not None:
        mu_values = np.linspace(opt["mu-min"], opt["mu-max"], opt["mu-points"])
    report = disorder.robustness_sweep(
        cfg.model,
        cfg.lattice,
        amplitude=opt["amplitude"],
        channels=channels,
        realizations=opt["realizations"],
        mu_values=mu_values,
        seed=opt["seed"],
        zero_tol=opt["zero-tol"],
    )
    rows = Rows()
    mus = [float(mu) for mu in report.mu_values]
    thresholds = [float(v) for v in report.threshold]
    robust = report.robust
    for c, channel in enumerate(report.channels):
        disp = report.displacement[c].tolist()
        verdicts = [
            "no-zero-modes" if np.isnan(d) else ("robust" if ok else "broken")
            for d, ok in zip(disp, robust[c])
        ]
        rows.add(
            disorder.channel_name(channel), mus,
            ["" if np.isnan(d) else d for d in disp], thresholds, verdicts,
        )
    return {
        "columns": ["channel", "mu", "displacement", "threshold", "verdict"],
        "rows": rows,
    }


def _task_classify(cfg):
    lat = cfg.lattice
    results = boundary.classify_zero_modes(cfg.model, lat, zero_tol=cfg.options["zero-tol"])
    rows = Rows()
    flag = lambda v: "" if v is None else ("yes" if v else "no")
    for region in sorted(results):
        res = results[region]
        rows.add(
            region, range(len(res.states)),
            [st.label for st in res.states],
            [float(st.entropy) for st in res.states],
            [float(st.overlap) for st in res.states],
            flag(res.matches_table), flag(res.row_complete),
        )
    return {
        "columns": [
            "region", "state_index", "label", "entropy",
            "overlap", "matches_table", "row_complete",
        ],
        "rows": rows,
    }


def _task_symmetry_check(cfg):
    n = cfg.options["k-points"]
    kgrid = -np.pi + 2.0 * np.pi * np.arange(n) / n
    if cfg.model.orientation != PARALLEL:
        # the perpendicular child takes (kx, ky): the full k-points^2 grid
        kx, ky = np.meshgrid(kgrid, kgrid, indexing="ij")
        kgrid = np.stack([kx.ravel(), ky.ravel()], axis=-1)
    report = symmetry_check(cfg.model, kgrid)
    order = ["T", "P1", "C1", "P2", "C2", "U"]
    rows = Rows()
    rows.add(order, [float(report.residuals[name]) for name in order])
    return {"columns": ["symmetry", "residual"], "rows": rows}


def _task_dirac(cfg):
    if cfg.model.orientation == PARALLEL:
        rec = dirac_expansion_parallel(cfg.model)
        names = ["m1", "m2", "mass", "v1", "v2", "quad"]
        values = [rec.m1, rec.m2, rec.mass, rec.v1, rec.v2, rec.quad]
    else:
        rec = group_velocity_perp(cfg.model, cfg.options["kx"], cfg.options["ky"])
        names = [
            "velocity_x", "velocity_y", "closed_form_x", "closed_form_y",
            "at_critical", "one_sided",
        ]
        values = [*rec.velocity, *rec.closed_form, rec.at_critical, rec.one_sided]
    rows = Rows()
    rows.add(names, [float(v) for v in values])
    return {"columns": ["coefficient", "value"], "rows": rows}


_DISPATCH = {
    "spectrum": _task_spectrum,
    "sweep-mu": _task_sweep_mu,
    "sweep-length": _task_sweep_length,
    "wannier": _task_wannier,
    "winding": _task_winding,
    "majorana-points": _task_majorana_points,
    "quantization": _task_quantization,
    "density": _task_density,
    "disorder": _task_disorder,
    "classify": _task_classify,
    "symmetry-check": _task_symmetry_check,
    "dirac": _task_dirac,
}


def run_task(cfg):
    """Execute cfg's task and return its {"columns": [...], "rows": Rows} payload.

    len(payload["rows"]) is the number of data rows, and iterating it
    yields each row as a plain list of float, int or str cells.
    """
    if not isinstance(cfg, RunConfig):
        raise TypeError(f"run_task needs a RunConfig, got {type(cfg)!r}")
    return _DISPATCH[cfg.task](cfg)
