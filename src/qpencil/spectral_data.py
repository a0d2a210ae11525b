"""Spectral data sets: ordering, multiplicity grouping, and scalar diagnostics.

A data set stores finitely many indexed pairs (eigenvalue, residue
coefficient) plus a background problem supplying every index outside the
window, so sums over all of Z0 against a matching background are finite and
exact.  Index convention: a multiplicity group occupies consecutive members
of Z0 starting at its most negative index; equal eigenvalues at opposite-sign
indices are legal only when they form one such consecutive group.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from . import zindex
from .errors import (
    DuplicateIndexError,
    IndexMismatchError,
    NonFiniteInputError,
    SignConflictError,
    ValidationError,
)
from .model import BackgroundProblem, ZeroBackground, same_background

# Absolute tolerance for treating two eigenvalues as equal.  Forward-solver
# roots are accurate to ~1e-10, so true multiples collapse while split roots
# at separations >= 1e-4 stay distinct.
GROUPING_TOL = 1e-9


@dataclass(frozen=True)
class SpectralEntry:
    """One indexed pair: n in Z0, eigenvalue, residue/Laurent coefficient."""

    n: int
    lam: complex
    M: complex | None = None

    def __post_init__(self):
        if self.n == 0:
            raise ValidationError("index 0 is not in Z0")
        vals = [self.lam] + ([self.M] if self.M is not None else [])
        if not all(np.isfinite(complex(v)) for v in vals):
            raise NonFiniteInputError(f"non-finite spectral entry at n={self.n}")


@dataclass(frozen=True)
class Group:
    """A maximal run of equal eigenvalues at consecutive Z0 indices."""

    start: int
    size: int
    lam: complex

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(zindex.shift(self.start, k) for k in range(self.size))


@dataclass(frozen=True)
class SpectralDataSet:
    """Finite window of spectral entries plus a background tail."""

    entries: dict[int, SpectralEntry]
    groups: tuple[Group, ...]
    tail: BackgroundProblem | None
    omega0: complex

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_entries(entries, tail: BackgroundProblem | None = None,
                     omega0: complex | None = None) -> "SpectralDataSet":
        """Build a set from entries already obeying the ordering convention."""
        emap: dict[int, SpectralEntry] = {}
        for e in entries:
            if e.n in emap:
                raise DuplicateIndexError(f"index {e.n} appears twice")
            emap[e.n] = e
        idx = sorted(emap)
        _check_contiguous(idx)
        groups = _detect_groups(emap, idx)
        _check_assumption_o(groups)
        if omega0 is None:
            omega0 = _estimate_omega0(emap, idx)
        return SpectralDataSet(entries=emap, groups=tuple(groups), tail=tail,
                               omega0=complex(omega0))

    # -- access --------------------------------------------------------------

    def window_indices(self) -> list[int]:
        return sorted(self.entries)

    @property
    def max_abs_index(self) -> int:
        return max((abs(n) for n in self.entries), default=0)

    def entry(self, n: int) -> SpectralEntry:
        """Entry at index n; indices outside the window come from the tail."""
        if n in self.entries:
            return self.entries[n]
        if self.tail is None:
            raise IndexMismatchError(f"index {n} outside window and no tail attached")
        lam, M = self.tail.spectral_entry(n)
        return SpectralEntry(n=n, lam=lam, M=M)

    def group_for(self, n: int) -> Group:
        for g in self.groups:
            if n in g.members:
                return g
        e = self.entry(n)  # tail entries are simple
        return Group(start=n, size=1, lam=e.lam)

    def group_coefficients(self, g: Group) -> list[complex]:
        """Laurent coefficients of the group, ordered by offset."""
        out = []
        for m in g.members:
            e = self.entry(m)
            if e.M is None:
                raise IndexMismatchError(f"entry {m} has no residue coefficient")
            out.append(e.M)
        return out

    def replace_entry(self, n: int, lam: complex | None = None,
                      M: complex | None = None) -> "SpectralDataSet":
        """Copy with one window entry modified (renormalizes grouping)."""
        cur = self.entry(n)
        new = SpectralEntry(n=n, lam=cur.lam if lam is None else lam,
                            M=cur.M if M is None else M)
        entries = dict(self.entries)
        entries[n] = new
        return SpectralDataSet.from_entries(entries.values(), tail=self.tail,
                                            omega0=self.omega0)

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.tail is not None and not same_background(self.tail, ZeroBackground()):
            raise ValidationError("only dirichlet-zero tails are serializable")
        ents = []
        for n in self.window_indices():
            e = self.entries[n]
            if e.M is None:
                raise ValidationError(f"entry {n} has no residue coefficient")
            ents.append({"n": n, "lambda": [e.lam.real, e.lam.imag],
                         "M": [e.M.real, e.M.imag]})
        return {"omega0": [self.omega0.real, self.omega0.imag],
                "model": "dirichlet-zero", "entries": ents}

    @staticmethod
    def from_json_dict(obj: dict) -> "SpectralDataSet":
        if not isinstance(obj, dict):
            raise ValidationError(f"spectral JSON must be an object, got {type(obj).__name__}")
        if obj.get("model", "dirichlet-zero") != "dirichlet-zero":
            raise ValidationError(f"unknown background model {obj.get('model')!r}")
        try:
            entries = [
                SpectralEntry(n=int(e["n"]),
                              lam=complex(e["lambda"][0], e["lambda"][1]),
                              M=complex(e["M"][0], e["M"][1]))
                for e in obj["entries"]
            ]
            om = obj.get("omega0")
            omega0 = complex(om[0], om[1]) if om is not None else None
        except (KeyError, IndexError, TypeError, ValueError) as err:
            raise ValidationError(f"malformed spectral data: {err!r}") from None
        return normalize_ordering(entries, tail=ZeroBackground(), omega0=omega0)

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_json_dict(), f, indent=2)

    @staticmethod
    def load_json(path) -> "SpectralDataSet":
        with open(path, encoding="utf-8") as f:
            return SpectralDataSet.from_json_dict(json.load(f))


# ---------------------------------------------------------------------------
# ordering / grouping

def _check_contiguous(idx: list[int]) -> None:
    neg = [n for n in idx if n < 0]
    pos = [n for n in idx if n > 0]
    if neg and (neg[-1] != -1 or neg != list(range(neg[0], 0))):
        raise IndexMismatchError("negative indices must form a contiguous run ending at -1")
    if pos and (pos[0] != 1 or pos != list(range(1, pos[-1] + 1))):
        raise IndexMismatchError("positive indices must form a contiguous run starting at 1")


def _detect_groups(emap, idx) -> list[Group]:
    groups: list[Group] = []
    run: list[int] = []
    for n in idx:
        if run and abs(emap[n].lam - emap[run[0]].lam) <= GROUPING_TOL \
                and zindex.shift(run[-1], 1) == n:
            run.append(n)
        else:
            if run:
                groups.append(Group(start=run[0], size=len(run), lam=emap[run[0]].lam))
            run = [n]
    if run:
        groups.append(Group(start=run[0], size=len(run), lam=emap[run[0]].lam))
    return groups


def _check_assumption_o(groups: list[Group]) -> None:
    # equal eigenvalues in two different groups across the sign boundary
    for i, a in enumerate(groups):
        for b in groups[i + 1:]:
            if abs(a.lam - b.lam) <= GROUPING_TOL and a.start * b.start < 0:
                raise SignConflictError(
                    f"equal eigenvalues at indices of opposite sign "
                    f"({a.start} and {b.start}) do not form one group")


def _estimate_omega0(emap, idx) -> complex:
    # asymptotically lam_n = n + omega0 + l2-tail, so average the shift over
    # the five largest |n| present
    ranked = sorted(idx, key=abs, reverse=True)[:5]
    if not ranked:
        return 0.0
    return complex(np.mean([emap[n].lam - n for n in ranked]))


def normalize_ordering(raw_entries, tail: BackgroundProblem | None = None,
                       omega0: complex | None = None) -> SpectralDataSet:
    """Regroup raw indexed entries so equal eigenvalues sit at consecutive indices.

    Entries are permuted within each sign separately (values move, the index
    slots stay); a run of equal eigenvalues may bridge -1 and 1, which becomes
    a single group starting at the negative index.  Equal eigenvalues at
    opposite signs that cannot bridge raise ``SignConflictError`` rather than
    being silently reordered across the sign of n.
    """
    items: list[SpectralEntry] = []
    seen: set[int] = set()
    for e in raw_entries:
        if not isinstance(e, SpectralEntry):
            n, lam, M = e
            e = SpectralEntry(n=int(n), lam=complex(lam),
                              M=None if M is None else complex(M))
        if e.n in seen:
            raise DuplicateIndexError(f"index {e.n} appears twice")
        seen.add(e.n)
        items.append(e)
    idx = sorted(seen)
    _check_contiguous(idx)

    def clusters(side_entries):
        out: list[list[SpectralEntry]] = []
        for e in side_entries:
            for cl in out:
                if abs(e.lam - cl[0].lam) <= GROUPING_TOL:
                    cl.append(e)
                    break
            else:
                out.append([e])
        return out

    neg = clusters([e for e in sorted(items, key=lambda s: s.n) if e.n < 0])
    pos = clusters([e for e in sorted(items, key=lambda s: s.n) if e.n > 0])

    # cross-sign equality is only legal for the clusters adjacent to the gap
    for i, a in enumerate(neg):
        for j, b in enumerate(pos):
            if abs(a[0].lam - b[0].lam) <= GROUPING_TOL and not (i == len(neg) - 1 and j == 0):
                raise SignConflictError(
                    "equal eigenvalues at indices of opposite sign cannot be "
                    "regrouped consecutively")

    def reassign(cls, slots):
        flat = [e for cl in cls for e in cl]
        return [SpectralEntry(n=s, lam=e.lam, M=e.M) for s, e in zip(slots, flat)]

    neg_slots = [n for n in idx if n < 0]
    pos_slots = [n for n in idx if n > 0]
    out = reassign(neg, neg_slots) + reassign(pos, pos_slots)

    # collapse each equal-eigenvalue run onto its mean so grouped entries
    # carry literally the same eigenvalue
    out_map = {e.n: e for e in out}
    groups = _detect_groups(out_map, sorted(out_map))
    final = []
    for g in groups:
        member_lams = [out_map[m].lam for m in g.members]
        if all(v == member_lams[0] for v in member_lams):
            lam = member_lams[0]   # already collapsed; averaging is not a fixed point
        else:
            lam = complex(np.mean(member_lams))
        for m in g.members:
            final.append(SpectralEntry(n=m, lam=lam, M=out_map[m].M))
    return SpectralDataSet.from_entries(final, tail=tail, omega0=omega0)


# ---------------------------------------------------------------------------
# diagnostics

@dataclass(frozen=True)
class Diagnostics:
    """Per-index deviation measures and their weighted l2 aggregates."""

    theta: dict[int, float]
    chi: dict[int, float]
    xi: dict[int, float]
    omega: float
    omega_n: float
    n_trunc: int

    def tail_norm(self, n_level: int) -> float:
        """sqrt(sum over |k| > n_level of (k xi_k)^2); nonincreasing in n_level."""
        return sqrt(sum((k * x) ** 2 for k, x in self.xi.items() if abs(k) > n_level))


def compute_diagnostics(data: SpectralDataSet, model: SpectralDataSet,
                        n_trunc: int) -> Diagnostics:
    """Per-index theta/chi/xi and the aggregates over the union window.

    Requires both sets to resolve every index of the union window; beyond it
    the two tails must coincide (then all tail terms vanish identically).
    """
    width = max(data.max_abs_index, model.max_abs_index)
    if width == 0:
        width = n_trunc
    if data.max_abs_index < width or model.max_abs_index < width:
        if not same_background(data.tail, model.tail):
            need = [s for s in (data, model) if s.max_abs_index < width and s.tail is None]
            if need:
                raise IndexMismatchError("windows differ and no common tail to fill from")

    theta: dict[int, float] = {}
    chi: dict[int, float] = {}
    xi: dict[int, float] = {}
    for n in zindex.window(width):
        th = abs(data.entry(n).lam - model.entry(n).lam)
        theta[n] = th
        chi[n] = 1.0 / th if th != 0.0 else 0.0

    done: set[int] = set()
    for n in zindex.window(width):
        if n in done:
            continue
        g = data.group_for(n)
        mg = model.group_for(n)
        if g.start == mg.start == n and g.size == mg.size:
            Ms = data.group_coefficients(g)
            Mts = model.group_coefficients(mg)
            th = abs(g.lam - mg.lam)
            for nu in range(g.size):
                member = zindex.shift(n, nu)
                xi[member] = th + sum(abs(Ms[p] - Mts[p]) for p in range(nu, g.size)) / abs(n)
                done.add(member)
        else:
            # group structures disagree at this index
            xi[n] = 1.0
            done.add(n)

    omega = sqrt(sum((k * x) ** 2 for k, x in xi.items()))
    omega_n = sqrt(sum((k * x) ** 2 for k, x in xi.items() if abs(k) > n_trunc))
    return Diagnostics(theta=theta, chi=chi, xi=xi, omega=omega,
                       omega_n=omega_n, n_trunc=n_trunc)


def truncate_hybrid(data: SpectralDataSet, model: SpectralDataSet,
                    n_trunc: int) -> SpectralDataSet:
    """Data values for |n| <= n_trunc, model values beyond."""
    if n_trunc < 0:
        raise ValidationError(f"truncation level {n_trunc} is negative")
    for g in list(data.groups) + list(model.groups):
        inside = [abs(m) <= n_trunc for m in g.members]
        if any(inside) and not all(inside):
            raise IndexMismatchError(
                f"truncation level {n_trunc} cuts the multiplicity group at {g.start}")
    entries = []
    for n in zindex.window(n_trunc):
        entries.append(data.entry(n))
    for n in model.window_indices():
        if abs(n) > n_trunc:
            entries.append(model.entry(n))
    return SpectralDataSet.from_entries(entries, tail=model.tail, omega0=model.omega0)


def eta_weight(k: int) -> float:
    """Optional l2 weight sqrt(sum_l 1/(l^2 (|l-k|+1)^2)), summed over |l| <= 4000."""
    ls = np.arange(-4000, 4001)
    ls = ls[ls != 0]
    return float(np.sqrt(np.sum(1.0 / (ls.astype(float) ** 2 * (np.abs(ls - k) + 1.0) ** 2))))


# ---------------------------------------------------------------------------
# splitting-condition validation

@dataclass(frozen=True)
class ConditionCheck:
    name: str
    measured: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class SplittingReport:
    delta: float
    slack: float
    checks: tuple[ConditionCheck, ...] = field(default_factory=tuple)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def violated(self) -> list[ConditionCheck]:
        return [c for c in self.checks if not c.passed]


def validate_splitting_conditions(data: SpectralDataSet, model: SpectralDataSet,
                                  n_star: int, delta: float,
                                  slack: float = 1.0) -> SplittingReport:
    """Check the discrete perturbation-size conditions for eigenvalue splitting.

    The nominal bounds carry unspecified constants, so each check compares the
    measured value against its bound scaled by ``slack`` and reports both.
    Checks: tail l2 bound, pairwise distinctness of the perturbed eigenvalues,
    moment sums of orders 0..m-1 against the reference coefficients, bare
    moment sums of orders m..2(m-1), and magnitude bounds delta^(1/m) /
    delta^((1-m)/m) on eigenvalue shifts and coefficients.
    """
    checks: list[ConditionCheck] = []

    diag = compute_diagnostics(data, model, n_star)
    tail = diag.tail_norm(n_star)
    checks.append(ConditionCheck("tail-l2", tail, delta * slack, tail <= delta * slack))

    width = max(data.max_abs_index, n_star) + 2
    lams = [data.entry(n).lam for n in zindex.window(width)]
    per_pair = [abs(a - b) for i, a in enumerate(lams) for b in lams[i + 1:]]
    min_gap = min(per_pair) if per_pair else float("inf")
    checks.append(ConditionCheck("pairwise-distinct", min_gap, GROUPING_TOL,
                                 min_gap > GROUPING_TOL))

    for g in model.groups:
        if abs(g.start) > n_star:
            continue
        m = g.size
        Mts = model.group_coefficients(g)
        lam_t = g.lam
        pairs = [(data.entry(mem).lam, data.entry(mem).M) for mem in g.members]
        for s in range(m):
            total = sum((lam - lam_t) ** s * M for lam, M in pairs) - Mts[s]
            checks.append(ConditionCheck(
                f"moment-s{s}-at-{g.start}", abs(total), delta * slack,
                abs(total) <= delta * slack))
        for s in range(m, 2 * (m - 1) + 1):
            total = sum((lam - lam_t) ** s * M for lam, M in pairs)
            checks.append(ConditionCheck(
                f"higher-moment-s{s}-at-{g.start}", abs(total), delta * slack,
                abs(total) <= delta * slack))
        shift_bound = delta ** (1.0 / m) * slack
        mag_bound = delta ** ((1.0 - m) / m) * slack
        for nu, (lam, M) in enumerate(pairs):
            checks.append(ConditionCheck(
                f"shift-nu{nu}-at-{g.start}", abs(lam - lam_t), shift_bound,
                abs(lam - lam_t) <= shift_bound))
            checks.append(ConditionCheck(
                f"coeff-nu{nu}-at-{g.start}", abs(M), mag_bound,
                abs(M) <= mag_bound))
    return SplittingReport(delta=delta, slack=slack, checks=tuple(checks))
