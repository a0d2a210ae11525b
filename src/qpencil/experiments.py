"""Splitting experiment, stability metrics, and the roundtrip check.

The experiment approximates a pencil having a double eigenvalue by a family
of pencils with simple eigenvalues: the double eigenvalue at 1/2 splits by
+-sqrt(delta) while the residue coefficients blow up like 1/sqrt(delta), yet
the recovered potentials stay O(delta)-close to the double-eigenvalue ones.
Closeness is measured on the reconstruction grid (d1 for the first
potential, d0 for the antiderivative of the zeroth) and, independently, by
the maximum of the rational Weyl-part difference on a contour enclosing the
cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, pi, sqrt
from pathlib import Path

import numpy as np

from . import zindex
from .errors import (
    ContourTouchesPoleError,
    GridMismatchError,
    NegativeDeltaError,
    NonFiniteInputError,
    QPencilError,
    ValidationError,
)
from .forward import (
    circle_nodes,
    find_eigenvalues,
    group_radius,
    sample_circle,
    weyl_residues,
    winding_number,
    write_csv,
)
from .inverse import (
    COND_LIMIT,
    RecoveredPotentials,
    default_grid,
    run_reconstruction,
    run_reconstructions,
)
from .model import BackgroundProblem, ZeroBackground, same_background
from .spectral_data import SpectralDataSet, SpectralEntry

# Double-eigenvalue reference data: eigenvalue 1/2 with Laurent pair
# (-1/pi, -i/(2 pi)); all other indices carry the zero-background values.
SPLIT_CENTER = 0.5
SPLIT_M0 = -1.0 / pi          # coefficient at the simple pole
SPLIT_M1 = -1j / (2.0 * pi)   # coefficient at the double pole

REFERENCE_DELTAS = (0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0005, 0.0002, 0.0001)


@dataclass(frozen=True)
class SplitExperimentConfig:
    delta_list: tuple[float, ...] = REFERENCE_DELTAS
    n_grid: int = 200

    def __post_init__(self):
        if not all(isfinite(d) for d in self.delta_list):
            raise NonFiniteInputError("splitting parameters must be finite")
        if any(d < 0 for d in self.delta_list):
            raise NegativeDeltaError("splitting parameters must be nonnegative")


def make_split_data(delta: float) -> SpectralDataSet:
    """Perturbed spectral data with the double eigenvalue split by sqrt(delta).

    With a = M1~/2 and c = M0~/a the split keeps the pole-part moments of
    orders 0 and 1 exact: lam+ + lam- = 1 + c delta and M+ + M- = M0~.
    delta = 0 returns the double-eigenvalue data itself.
    """
    if delta < 0:
        raise NegativeDeltaError(f"delta must be nonnegative, got {delta}")
    tail = ZeroBackground()
    if delta == 0:
        entries = [SpectralEntry(n=-1, lam=SPLIT_CENTER, M=SPLIT_M0),
                   SpectralEntry(n=1, lam=SPLIT_CENTER, M=SPLIT_M1)]
        return SpectralDataSet.from_entries(entries, tail=tail, omega0=0.0)
    a = SPLIT_M1 / 2.0
    c = SPLIT_M0 / a
    rt = sqrt(delta)
    entries = [
        SpectralEntry(n=1, lam=SPLIT_CENTER + rt, M=a / rt + SPLIT_M0),
        SpectralEntry(n=-1, lam=SPLIT_CENTER - rt + c * delta, M=-a / rt),
    ]
    return SpectralDataSet.from_entries(entries, tail=tail, omega0=0.0)


def compute_d_metrics(recovered: RecoveredPotentials,
                      reference: RecoveredPotentials) -> tuple[float, float]:
    """Max-norm distances of the potentials to a reconstruction on the same grid."""
    if recovered.x.shape != reference.x.shape \
            or not np.allclose(recovered.x, reference.x, atol=1e-12):
        raise GridMismatchError("reconstructions live on different grids")
    d1 = float(np.max(np.abs(recovered.q1 - reference.q1)))
    d0 = float(np.max(np.abs(recovered.q0_antideriv - reference.q0_antideriv)))
    return d1, d0


# ---------------------------------------------------------------------------
# contour metric

def rational_pole_part(dataset: SpectralDataSet, n_star: int):
    """The rational function with the data's poles of |index| <= n_star."""
    groups = [g for g in dataset.groups if abs(g.start) <= n_star]
    terms = [(g.lam, dataset.group_coefficients(g)) for g in groups]

    def fun(lam):
        lam = np.asarray(lam, dtype=complex)
        acc = np.zeros(lam.shape, dtype=complex)
        for pole, Ms in terms:
            for nu, M in enumerate(Ms):
                acc += M / (lam - pole) ** (nu + 1)
        return acc

    poles = [t[0] for t in terms]
    return fun, poles


def _separated_pole_parts(sets, n_star: int, contour_radius: float, width: int) -> list:
    """Pole-part functions of the sets, checked against the contour.

    The circle |lam| = contour_radius must enclose each set's poles of
    |index| <= n_star and none of its other eigenvalues up to index ``width`` and,
    with a tail, one index beyond (``resolved_indices``).
    """
    funs = []
    for ds in sets:
        fun, poles = rational_pole_part(ds, n_star)
        for pole in poles:
            if abs(abs(pole) - contour_radius) < 1e-6 * max(1.0, contour_radius):
                raise ContourTouchesPoleError(f"pole {pole} lies on the contour")
            if not abs(pole) < contour_radius:      # a NaN radius fails here too
                raise ValidationError(f"cluster pole {pole} lies outside the contour")
        for n in ds.resolved_indices(width):
            if abs(n) > n_star and abs(ds.entry(n).lam) <= contour_radius:
                raise ValidationError(f"eigenvalue {ds.entry(n).lam} (n={n}) inside the contour")
        funs.append(fun)
    return funs


def compute_split_delta_metric(data: SpectralDataSet, reference: SpectralDataSet,
                               n_star: int, contour_radius: float) -> float:
    """Contour max of |pole-part difference| between the data and the reference.

    The contour is the circle |lam| = contour_radius, sampled at 512 nodes; it
    must separate the low-index cluster (inside) from everything else (outside).
    """
    f_data, f_ref = _separated_pole_parts(
        (data, reference), n_star, contour_radius,
        max(data.max_abs_index, reference.max_abs_index))
    zs = circle_nodes(0.0, contour_radius, 512)
    return float(np.max(np.abs(f_data(zs) - f_ref(zs))))


def expected_weyl(data: SpectralDataSet, lam) -> np.ndarray:
    """Analytic Weyl function of the pencil with the given data (zero tail).

    Background part for the zero problem is -lam cot(lam pi); the window
    contributes the data pole parts minus the background pole parts.
    """
    if not same_background(data.tail, ZeroBackground()):
        raise ValidationError("expected_weyl requires a zero-background tail")
    lam = np.asarray(lam, dtype=complex)
    base = -lam * np.cos(lam * pi) / np.sin(lam * pi)
    n_win = data.max_abs_index
    f_data, _ = rational_pole_part(data, n_win)
    model_set = data.tail.spectral_data(n_win)
    f_model, _ = rational_pole_part(model_set, n_win)
    return base + f_data(lam) - f_model(lam)


# ---------------------------------------------------------------------------
# the delta sweep

@dataclass
class ExperimentRow:
    delta: float
    d1: float
    d0: float
    lambda_plus: complex
    lambda_minus: complex
    M_plus: complex
    M_minus: complex
    note: str = ""
    error: str = ""


TABLE_HEADER = ["delta", "d1", "d0", "re_l1", "im_l1", "re_lm1", "im_lm1",
                "re_M1", "im_M1", "re_Mm1", "im_Mm1"]


def write_table_csv(rows: list[ExperimentRow], path) -> None:
    write_csv(path, TABLE_HEADER, (
        (r.delta, r.d1, r.d0,
         r.lambda_plus.real, r.lambda_plus.imag,
         r.lambda_minus.real, r.lambda_minus.imag,
         r.M_plus.real, r.M_plus.imag,
         r.M_minus.real, r.M_minus.imag)
        for r in rows if not r.error))


def format_table(rows: list[ExperimentRow]) -> str:
    """Display table with 4-decimal metrics and 3-decimal spectral columns."""
    lines = [f"{'delta':<8} {'d1':<8} {'d0':<8} {'lambda_+':<16} "
             f"{'lambda_-':<20} {'M_+':<22} {'M_-':<14} note"]
    for r in rows:
        if r.error:
            lines.append(f"{r.delta:<8g} failed: {r.error}")
            continue
        lines.append(
            f"{r.delta:<8g} {r.d1:<8.4f} {r.d0:<8.4f} "
            f"{r.lambda_plus:<16.3f} {r.lambda_minus:<20.3f} "
            f"{r.M_plus:<22.3f} {r.M_minus:<14.3f} {r.note}")
    return "\n".join(lines)


def run_table(config: SplitExperimentConfig, out_dir=None,
              verify_multiplicity: bool = True) -> list[ExperimentRow]:
    """Run the delta sweep against the double-eigenvalue reference.

    The split data of every delta and the delta = 0 reference are
    reconstructed against the zero background in one stacked
    ``run_reconstructions`` call; d1/d0 measure the distance to the reference.
    A delta whose reconstruction fails gets its error row, the others stand.
    A delta = 0 entry in the list is reported as a multiplicity extension and
    (optionally) verified by the winding count of the forward characteristic
    function around the double eigenvalue.
    """
    model = ZeroBackground()
    grid = default_grid(config.n_grid)
    data = {delta: make_split_data(delta) for delta in (0.0,) + config.delta_list}
    recs = dict(zip(data, run_reconstructions(list(data.values()), model, grid)))
    if isinstance(reference := recs[0.0], QPencilError):
        raise reference
    rows: list[ExperimentRow] = []
    for delta in config.delta_list:
        rec, lam_p, lam_m = recs[delta], data[delta].entry(1).lam, data[delta].entry(-1).lam
        m_p, m_m = data[delta].entry(1).M, data[delta].entry(-1).M
        try:
            if isinstance(rec, QPencilError):
                raise rec
            d1, d0 = compute_d_metrics(rec, reference)
            note = ""
            if delta == 0:
                note = "multiplicity extension (double eigenvalue)"
                if verify_multiplicity:
                    w = winding_number(rec.as_potentials(), SPLIT_CENTER,
                                       group_radius(data[0.0], data[0.0].groups[0]))
                    note += f"; forward winding at 1/2: {w}"
            row = ExperimentRow(delta=delta, d1=d1, d0=d0, lambda_plus=lam_p,
                                lambda_minus=lam_m, M_plus=m_p, M_minus=m_m,
                                note=note)
            if out_dir is not None:
                rec.as_potentials().to_csv(Path(out_dir) / f"potentials_delta={delta:g}.csv")
        except QPencilError as err:
            row = ExperimentRow(delta=delta, d1=float("nan"), d0=float("nan"),
                                lambda_plus=lam_p, lambda_minus=lam_m,
                                M_plus=m_p, M_minus=m_m, error=str(err))
        rows.append(row)
    if out_dir is not None:
        write_table_csv(rows, Path(out_dir) / "table.csv")
    return rows


# ---------------------------------------------------------------------------
# roundtrip verification

@dataclass
class RoundtripRow:
    n: int
    lam_err: float
    M_rel_err: float


@dataclass
class RoundtripReport:
    rows: list[RoundtripRow] = field(default_factory=list)
    windings: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def max_lam_err(self) -> float:
        return max((r.lam_err for r in self.rows), default=0.0)

    @property
    def max_m_rel_err(self) -> float:
        return max((r.M_rel_err for r in self.rows), default=0.0)

    def format(self) -> str:
        lines = [f"{'n':>4} {'|lam_in - lam_out|':>20} {'|M rel err|':>14}"]
        for r in self.rows:
            lines.append(f"{r.n:>4} {r.lam_err:>20.3e} {r.M_rel_err:>14.3e}")
        for start, (want, got) in self.windings.items():
            lines.append(f"group at {start}: winding expected {want}, measured {got}")
        return "\n".join(lines)


def roundtrip_check(data: SpectralDataSet, model: BackgroundProblem,
                    n_check: int, grid=None, refine: int | None = None,
                    cond_limit: float = COND_LIMIT) -> RoundtripReport:
    """Reconstruct, solve the direct problem on the result, compare the data.

    Eigenvalues are matched greedily by proximity inside the comparison
    window, so the report does not depend on index-assignment conventions of
    the root search.  Multiplicity groups are compared, and their winding checked,
    on the circle that ``group_radius`` gives them in the data.
    """
    rec = run_reconstruction(data, model, grid, cond_limit=cond_limit)
    pot = rec.as_potentials()
    # index the output in the data's numbering frame: the mean of the
    # recovered q1 can differ from the data's mean shift by an integer when
    # the accumulated phase of the first potential passes through +-pi
    omega0 = complex(data.omega0)

    report = RoundtripReport()
    grouped: set[int] = set()
    for g in data.groups:
        if g.size == 1:
            continue
        # Discretization splits a multiple root at the sqrt scale of the grid
        # error, so per-root residues are meaningless there; compare the
        # contour-stable quantities instead: the winding count, the mean root
        # location, and the Laurent coefficients on the circle separating the group.
        sample = sample_circle(pot, g.lam, group_radius(data, g), sums=1, laurent=g.size,
                               refine=refine, check_halving=True)
        report.windings[g.start] = (g.size, sample.count)
        ps, *ms = map(complex, sample.moments(1, g.size))
        center_out = ps / g.size
        for member, m_out in zip(g.members, ms):
            grouped.add(member)
            m_in = data.entry(member).M
            report.rows.append(RoundtripRow(
                n=member, lam_err=abs(center_out - g.lam),
                M_rel_err=abs(m_out - m_in) / max(abs(m_in), 1e-300)))

    eigs = find_eigenvalues(pot, n_check, omega0, refine=refine)
    full = weyl_residues(pot, eigs, refine=refine)

    window = [n for n in zindex.window(n_check) if n not in grouped]
    outs = {n: full.entry(n) for n in window}
    used: set[int] = set()
    for n in window:
        e_in = data.entry(n)
        best = min((k for k in window if k not in used),
                   key=lambda k: abs(outs[k].lam - e_in.lam))
        used.add(best)
        e_out = outs[best]
        report.rows.append(RoundtripRow(
            n=n, lam_err=abs(e_out.lam - e_in.lam),
            M_rel_err=abs(e_out.M - e_in.M) / max(abs(e_in.M), 1e-300)))
    report.rows.sort(key=lambda r: r.n)
    return report
