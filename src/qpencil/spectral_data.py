"""Spectral data sets: ordering, multiplicity grouping, and truncation.

A data set stores finitely many indexed pairs (eigenvalue, residue
coefficient) plus a background problem supplying every index outside the
window, so sums over all of Z0 against a matching background are finite and
exact.  Index convention: a multiplicity group occupies consecutive members
of Z0 starting at its most negative index; equal eigenvalues at opposite-sign
indices are legal only when they form one such consecutive group.  Every set
is regrouped onto that convention when it is built: ``from_entries`` is the
one constructor, behind JSON, ``replace_entry``, truncation and the solvers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import zindex
from .errors import (
    DuplicateIndexError,
    IndexMismatchError,
    NonFiniteInputError,
    SignConflictError,
    ValidationError,
)
from .model import ZeroBackground

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
        # stored as complex, so float and complex inputs give the same bits
        object.__setattr__(self, "lam", complex(self.lam))
        if self.M is not None:
            object.__setattr__(self, "M", complex(self.M))
        if not all(np.isfinite(v) for v in (self.lam, self.M) if v is not None):
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
    tail: ZeroBackground | None
    omega0: complex

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_entries(entries, tail: ZeroBackground | None = None,
                     omega0: complex | None = None) -> "SpectralDataSet":
        """Build a set, regrouping equal eigenvalues onto consecutive indices.

        The indices must form a window of Z0 without repeats.  Per sign of n,
        eigenvalues linked by steps of at most GROUPING_TOL (``clusters``) are one
        cluster; the clusters fill the sign's index slots in order of first
        appearance (values move with their coefficients, the slots stay), and the
        two next to the gap bridge -1 and 1 when linked.  A cluster whose members
        differ is collapsed onto their mean c, and their coefficients, residues R_k
        of simple poles, become the group's Laurent coefficients, the moments
        m_nu = sum_k R_k (lam_k - c)^nu for nu < size; a run of some equal and some
        distinct eigenvalues raises ValidationError, and one without coefficients
        collapses only its eigenvalues.  Equal eigenvalues left in two groups raise
        SignConflictError at opposite signs and ValidationError otherwise, as when a
        collapsed mean lands within GROUPING_TOL of another cluster.  Input that
        already obeys the convention comes back unchanged.  Without ``omega0`` the
        set takes its tail's, or 0 without a tail.
        """
        emap: dict[int, SpectralEntry] = {}
        for e in entries:
            if e.n in emap:
                raise DuplicateIndexError(f"index {e.n} appears twice")
            emap[e.n] = e
        idx = sorted(emap)
        _check_contiguous(idx)
        emap, groups = _regroup(emap, idx)
        _check_assumption_o(groups)
        if omega0 is None:
            omega0 = 0.0 if tail is None else tail.omega0
        omega0 = complex(omega0)
        if not np.isfinite(omega0):
            raise NonFiniteInputError(f"omega0={omega0} is not finite")
        return SpectralDataSet(entries=emap, groups=tuple(groups), tail=tail,
                               omega0=omega0)

    # -- access --------------------------------------------------------------

    def window_indices(self) -> list[int]:
        return sorted(self.entries)

    @property
    def max_abs_index(self) -> int:
        return max((abs(n) for n in self.entries), default=0)

    def resolved_indices(self, width: int = 0) -> list[int]:
        """The indices whose eigenvalues the set resolves: its window and, with a tail,
        every |n| <= max(width, max_abs_index) + 1."""
        if self.tail is None:
            return self.window_indices()
        return zindex.window(max(width, self.max_abs_index) + 1)

    def entry(self, n: int) -> SpectralEntry:
        """Entry at index n; indices outside the window come from the tail."""
        if n in self.entries:
            return self.entries[n]
        if self.tail is None:
            raise IndexMismatchError(f"index {n} outside window and no tail attached")
        lam, M = self.tail.spectral_entry(n)
        return SpectralEntry(n=n, lam=lam, M=M)

    @cached_property
    def _group_of(self) -> dict[int, Group]:
        return {m: g for g in self.groups for m in g.members}

    def group_for(self, n: int) -> Group:
        g = self._group_of.get(n)     # indices outside the window are simple
        return g if g is not None else Group(start=n, size=1, lam=self.entry(n).lam)

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
        """Copy with one window entry modified, regrouped like any new set."""
        cur = self.entry(n)
        new = SpectralEntry(n=n, lam=cur.lam if lam is None else lam,
                            M=cur.M if M is None else M)
        entries = dict(self.entries)
        entries[n] = new
        return SpectralDataSet.from_entries(entries.values(), tail=self.tail,
                                            omega0=self.omega0)

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.tail is not None and self.tail != ZeroBackground():
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
                SpectralEntry(n=_json_index(e["n"]), lam=_json_pair(e["lambda"], "lambda"),
                              M=_json_pair(e["M"], "M"))
                for e in obj["entries"]
            ]
            omega0 = None if (om := obj.get("omega0")) is None else _json_pair(om, "omega0")
        except (KeyError, IndexError, TypeError, ValueError) as err:
            raise ValidationError(f"malformed spectral data: {err!r}") from None
        return SpectralDataSet.from_entries(entries, tail=ZeroBackground(), omega0=omega0)

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_json_dict(), f, indent=2)

    @staticmethod
    def load_json(path) -> "SpectralDataSet":
        try:
            with open(path, encoding="utf-8") as f:
                obj = json.load(f)
        except (ValueError, RecursionError) as err:     # not UTF-8 or not JSON, or too deep
            raise OSError(f"cannot read {path} as JSON: {err}") from None
        return SpectralDataSet.from_json_dict(obj)


def _json_index(n) -> int:
    """An index as JSON writes it: an integer, never a bool, float or string."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValidationError(f"index must be a JSON integer, got {n!r}")
    return n


def _json_pair(v, name: str) -> complex:
    """A complex number as JSON writes it: a list [re, im] of two numbers, never bools."""
    if not isinstance(v, list) or len(v) != 2 or any(isinstance(c, bool) for c in v):
        raise ValidationError(f"{name} must be a JSON pair [re, im], got {v!r}")
    try:
        return complex(v[0], v[1])
    except OverflowError:       # an integer beyond the float range
        raise ValidationError(f"{name} has a part too large for a float") from None


# ---------------------------------------------------------------------------
# ordering / grouping

def _check_contiguous(idx: list[int]) -> None:
    neg, pos = [n for n in idx if n < 0], [n for n in idx if n > 0]
    if neg != list(range(-len(neg), 0)):    # idx is sorted and distinct
        raise IndexMismatchError("negative indices must form a contiguous run ending at -1")
    if pos != list(range(1, len(pos) + 1)):
        raise IndexMismatchError("positive indices must form a contiguous run starting at 1")


def clusters(values, tol: float) -> list[list[int]]:
    """Single linkage: the positions of ``values`` joined by steps |a - b| <= tol,
    clusters in order of their first member and members in input order."""
    v = np.asarray(values, dtype=complex)
    near = np.abs(v[:, None] - v[None, :]) <= tol
    if np.count_nonzero(near) == v.size:        # no two values linked: skip the passes
        return [[i] for i in range(v.size)]
    label, last = np.arange(v.size), None
    while not np.array_equal(label, last):      # each pass spreads the lowest position a step
        label, last = np.where(near, label, v.size).min(axis=1, initial=v.size), label
    out: dict[int, list[int]] = {}
    for i, k in enumerate(label.tolist()):
        out.setdefault(k, []).append(i)
    return list(out.values())


def _regroup(emap: dict[int, SpectralEntry],
             idx: list[int]) -> tuple[dict[int, SpectralEntry], list[Group]]:
    """Entries moved onto the grouping convention, and their groups."""
    runs: list[list[SpectralEntry]] = []
    for side in ([emap[n] for n in idx if n < 0], [emap[n] for n in idx if n > 0]):
        found = [[side[k] for k in cl] for cl in clusters([e.lam for e in side], GROUPING_TOL)]
        # the clusters next to the gap bridge -1 and 1 when linked
        if runs and found and min(abs(a.lam - b.lam) for a in runs[-1]
                                  for b in found[0]) <= GROUPING_TOL:
            runs[-1] += found.pop(0)
        runs += found
    out: dict[int, SpectralEntry] = {}
    groups: list[Group] = []
    slots = iter(idx)   # a window of Z0, so neighbouring slots are consecutive indices
    for run in runs:
        lam, Ms = run[0].lam, [e.M for e in run]
        if any(e.lam != lam for e in run):   # averaging is not a fixed point
            lam = complex(np.mean([e.lam for e in run]))
            if None not in Ms:
                if len({e.lam for e in run}) < len(run):
                    raise ValidationError(f"eigenvalues within {GROUPING_TOL} of {lam:.6g} "
                                          "mix equal and distinct values")
                # residues of simple poles: the pole part's Laurent coefficients about lam
                Ms = [sum(e.M * (e.lam - lam) ** nu for e in run) for nu in range(len(run))]
        members = [next(slots) for _ in run]
        for n, e, M in zip(members, run, Ms):
            out[n] = e if (n, lam, M) == (e.n, e.lam, e.M) else SpectralEntry(n=n, lam=lam, M=M)
        groups.append(Group(start=members[0], size=len(run), lam=lam))
    return out, groups


def _check_assumption_o(groups: list[Group]) -> None:
    # equal eigenvalues in two different groups: across the sign boundary, or on
    # one side when a collapsed cluster's mean moved within reach of another
    for cl in clusters([g.lam for g in groups], GROUPING_TOL):
        if len(cl) > 1:
            starts = sorted(groups[k].start for k in cl)
            if starts[0] < 0 < starts[-1]:
                raise SignConflictError(
                    f"equal eigenvalues at indices of opposite sign "
                    f"({starts[0]} and {starts[-1]}) do not form one group")
            raise ValidationError(f"eigenvalues within {GROUPING_TOL} of "
                                  f"{groups[cl[0]].lam:.6g} chain across two clusters")


def truncate_hybrid(data: SpectralDataSet, n_trunc: int) -> SpectralDataSet:
    """Data values for |n| <= n_trunc, the data's tail beyond, with the tail's omega0."""
    if n_trunc < 0:
        raise ValidationError(f"truncation level {n_trunc} is negative")
    for g in data.groups:
        inside = [abs(m) <= n_trunc for m in g.members]
        if any(inside) and not all(inside):
            raise IndexMismatchError(
                f"truncation level {n_trunc} cuts the multiplicity group at {g.start}")
    return SpectralDataSet.from_entries([data.entry(n) for n in zindex.window(n_trunc)],
                                        tail=data.tail)

