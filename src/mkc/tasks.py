"""Task dispatch: turn a validated RunConfig into a tabular payload.

Every task produces {"columns": [...], "rows": [[...], ...]} with plain
float/int/str cells, in an order fixed by the configuration alone, so the
serialized output is reproducible byte for byte.
"""

import numpy as np

from . import boundary, disorder, topology
from .config import RunConfig
from .errors import ConfigError
from .lattice import (
    ChainLattice,
    SlabLattice,
    low_energy_vs_length,
    spectrum_vs_mu,
    zero_subspace,
)
from .models import (
    PARALLEL,
    dirac_expansion_parallel,
    group_velocity_perp,
    symmetry_check,
)


def _lattice(cfg):
    vals = cfg.lattice_values
    if not vals:
        return None
    if cfg.kind == "mkc-perpendicular":
        return SlabLattice(Lx=vals["lx"], Ly=vals["ly"], bcx=vals["bcx"], bcy=vals["bcy"])
    return ChainLattice(L=vals["l"], bc=vals["bc"])


def _task_spectrum(cfg):
    ev = zero_subspace(cfg.model, _lattice(cfg)).eigenvalues
    rows = [[i, float(e)] for i, e in enumerate(ev)]
    return {"columns": ["index", "energy"], "rows": rows}


def _task_sweep_mu(cfg):
    opt = cfg.options
    grid = np.linspace(opt["mu-min"], opt["mu-max"], opt["mu-points"])
    recs = spectrum_vs_mu(
        cfg.model, grid, opt["link"], _lattice(cfg),
        n_modes=opt["n-modes"], threads=cfg.threads,
    )
    def second_mu(mu):
        if cfg.kind == "parent":
            return ""
        if opt["link"] == "equal":
            return mu
        if opt["link"] == "opposite":
            return -mu
        return float(cfg.model.p2.mu)

    rows = []
    for rec in recs:
        mu = float(rec["mu"])
        for bc in ("obc", "pbc"):
            for i, e in enumerate(rec[bc]):
                rows.append([mu, second_mu(mu), bc, i, float(e)])
    return {"columns": ["mu1", "mu2", "bc", "level_index", "energy"], "rows": rows}


def _task_sweep_length(cfg):
    opt = cfg.options
    lengths = range(opt["l-min"], opt["l-max"] + 1, opt["l-step"])
    recs = low_energy_vs_length(
        cfg.model, lengths, bc=opt["bc"], n_modes=opt["n-modes"], threads=cfg.threads
    )
    rows = []
    for rec in recs:
        for i, e in enumerate(rec["modes"]):
            rows.append([rec["L"], i, float(e), rec["splitting"]])
    return {"columns": ["L", "level_index", "energy", "splitting"], "rows": rows}


def _task_wannier(cfg):
    R = cfg.options["loop-points"]
    rows = []
    if cfg.kind == "parent":
        ws = topology.wannier_center_parent(cfg.model, R)
        rows = [[ws.path, i, float(c)] for i, c in enumerate(ws.centers)]
    elif cfg.kind == "mkc-parallel":
        ws = topology.wannier_centers_parallel(cfg.model, R)
        rows = [[ws.path, i, float(c)] for i, c in enumerate(ws.centers)]
    else:
        fixed = cfg.options["fixed-momentum"]
        for direction in ("x", "y"):
            ws = topology.wannier_centers_perp(cfg.model, direction, fixed, R)
            rows += [[ws.path, i, float(c)] for i, c in enumerate(ws.centers)]
    return {"columns": ["loop", "index", "center"], "rows": rows}


def _parent_winding(p, samples):
    ks = np.linspace(0.0, 2.0 * np.pi, samples + 1)
    curve = topology.WindingCurve(
        dy=2.0 * p.delta * np.sin(ks), dz=-(2.0 * p.t * np.cos(ks) + p.mu)
    )
    return topology.winding_number(curve)


def _task_winding(cfg):
    samples = cfg.options["samples"]
    if cfg.kind == "parent":
        r = _parent_winding(cfg.model, samples)
        rows = [["k", "parent", "", r.w]]
    elif cfg.kind == "mkc-parallel":
        r1, r2 = topology.component_winding_parallel(cfg.model, samples)
        rows = [["k", "component-1", "", r1.w], ["k", "component-2", "", r2.w]]
    else:
        lat = _lattice(cfg)
        table = topology.component_winding_perp(cfg.model, lat.Lx, lat.Ly, samples)
        rows = []
        for rec in table["rows"]:
            rows.append(["kx", "component-1", f"{rec['fixed']:.17g}", rec["w1"]])
            rows.append(["kx", "component-2", f"{rec['fixed']:.17g}", rec["w2"]])
        for rec in table["columns"]:
            rows.append(["ky", "component-1", f"{rec['fixed']:.17g}", rec["w1"]])
            rows.append(["ky", "component-2", f"{rec['fixed']:.17g}", rec["w2"]])
    return {"columns": ["loop", "component", "fixed_momentum", "winding"], "rows": rows}


def _point_rows(points):
    rows = [
        [float(mu), int(d), prov]
        for mu, d, prov in zip(points.mu_values, points.degeneracies, points.provenance)
    ]
    return {"columns": ["mu", "degeneracy", "provenance"], "rows": rows}


def _task_majorana_points(cfg):
    lat = _lattice(cfg)
    if cfg.kind == "parent":
        return _point_rows(boundary.kc_majorana_points(cfg.model, lat.L))
    if cfg.kind == "mkc-parallel":
        p1, p2 = cfg.model.p1, cfg.model.p2
        mixed = (
            abs(p1.t + p2.t) < 1e-12
            and abs(p1.delta - p2.delta) < 1e-12
            and abs(p1.mu - p2.mu) < 1e-12
        )
        if not mixed:
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
    lat = _lattice(cfg)
    mu_range = None
    if (opt["mu-min"] is None) != (opt["mu-max"] is None):
        raise ConfigError("[task] mu-min and mu-max must be given together")
    if opt["mu-min"] is not None:
        mu_range = (opt["mu-min"], opt["mu-max"])
    points = boundary.quantization_points(
        cfg.model.p1, cfg.model.p2, lat.L,
        mu_range=mu_range, grid_points=opt["grid-points"],
    )
    return _point_rows(points)


def _task_density(cfg):
    lat = _lattice(cfg)
    dens = zero_subspace(cfg.model, lat, tol=cfg.options["zero-tol"])
    rows = []
    if isinstance(lat, SlabLattice):
        for i in range(lat.Lx):
            for j in range(lat.Ly):
                rows.append([i + 1, j + 1, float(dens.weights[i, j])])
    else:
        for i, w in enumerate(dens.weights):
            rows.append([i + 1, 0, float(w)])
    return {"columns": ["x", "y", "weight"], "rows": rows}


def _task_disorder(cfg):
    opt = cfg.options
    channels = None
    if opt["channel"] is not None:
        channels = [opt["channel"]]
    trio = [opt["mu-min"], opt["mu-max"], opt["mu-points"]]
    if any(v is not None for v in trio) and any(v is None for v in trio):
        raise ConfigError("[task] mu-min, mu-max and mu-points must be given together")
    mu_values = None
    if trio[0] is not None:
        mu_values = np.linspace(trio[0], trio[1], trio[2])
    report = disorder.robustness_sweep(
        cfg.model,
        _lattice(cfg),
        amplitude=opt["amplitude"],
        channels=channels,
        realizations=opt["realizations"],
        mu_values=mu_values,
        seed=opt["seed"],
        zero_tol=opt["zero-tol"],
    )
    rows = []
    robust = report.robust
    for c, channel in enumerate(report.channels):
        name = disorder.channel_name(channel)
        for m, mu in enumerate(report.mu_values):
            disp = report.displacement[c, m]
            verdict = "no-zero-modes" if np.isnan(disp) else (
                "robust" if robust[c, m] else "broken"
            )
            rows.append([
                name, float(mu),
                float(disp) if not np.isnan(disp) else "",
                float(report.threshold[m]), verdict,
            ])
    return {
        "columns": ["channel", "mu", "displacement", "threshold", "verdict"],
        "rows": rows,
    }


def _task_classify(cfg):
    lat = _lattice(cfg)
    results = boundary.classify_zero_modes(cfg.model, lat, zero_tol=cfg.options["zero-tol"])
    rows = []
    for region in sorted(results):
        res = results[region]
        flag = lambda v: "" if v is None else ("yes" if v else "no")
        for i, st in enumerate(res.states):
            rows.append([
                region, i, st.label, float(st.entropy), float(st.overlap),
                flag(res.matches_table), flag(res.row_complete),
            ])
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
    order = ("T", "P1", "C1", "P2", "C2", "U")
    rows = [[name, float(report.residuals[name])] for name in order]
    return {"columns": ["symmetry", "residual"], "rows": rows}


def _task_dirac(cfg):
    if cfg.model.orientation == PARALLEL:
        rec = dirac_expansion_parallel(cfg.model)
        rows = [
            ["m1", rec.m1], ["m2", rec.m2], ["mass", rec.mass],
            ["v1", rec.v1], ["v2", rec.v2], ["quad", rec.quad],
        ]
    else:
        rec = group_velocity_perp(cfg.model, cfg.options["kx"], cfg.options["ky"])
        rows = [
            ["velocity_x", rec.velocity[0]], ["velocity_y", rec.velocity[1]],
            ["closed_form_x", rec.closed_form[0]], ["closed_form_y", rec.closed_form[1]],
            ["at_critical", int(rec.at_critical)], ["one_sided", int(rec.one_sided)],
        ]
    rows = [[name, float(v)] for name, v in rows]
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
    """Execute cfg's task and return its {"columns", "rows"} payload."""
    if not isinstance(cfg, RunConfig):
        raise TypeError(f"run_task needs a RunConfig, got {type(cfg)!r}")
    return _DISPATCH[cfg.task](cfg)
