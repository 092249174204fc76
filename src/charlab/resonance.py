"""Critical type numbers, Euler characteristics, resonance identity, series.

The per-iterate type-number vectors (k_0, ..., k_{2n-2}) obey hard structural
rules; nondegenerate iterates are auto-filled from index parity, degenerate
ones must be supplied by the user and are validated, never invented.  The
Euler characteristics and the identity sums are exact (integer / Fraction)
whenever the mean indices are rational-certified.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidArgument, TableRuleViolation
from .index import OrbitIndexData, extend_records

_ZERO_TOL = 1e-10       # a float mean index this near 0 is 0

# ---------------------------------------------------------------------------
# critical type numbers


RULES = (
    "nonnegative-integer",
    "support",
    "end-values-binary",
    "bottom-exclusive",
    "top-exclusive",
    "periodicity",
)


def validate_type_vector(k, nullity: int, dim_n: int):
    """Check one iterate's type-number vector against the structural rules.

    Raises TableRuleViolation naming the first violated rule.
    """
    k = list(k)
    if len(k) != 2 * dim_n - 1:
        raise InvalidArgument(
            f"type vector must have length 2n-1 = {2*dim_n-1}, got {len(k)}")
    if any((not float(v).is_integer()) or v < 0 for v in k):
        raise TableRuleViolation("nonnegative-integer",
                                 f"type numbers must be integers >= 0, got {k}")
    k = [int(v) for v in k]
    top = nullity - 1
    if any(v != 0 for l, v in enumerate(k) if l > top):
        raise TableRuleViolation(
            "support", f"entries above slot nu-1 = {top} must vanish: {k}")
    if k[0] > 1 or (top >= 0 and k[top] > 1):
        raise TableRuleViolation(
            "end-values-binary", f"slots 0 and nu-1 may only hold 0 or 1: {k}")
    if k[0] == 1 and any(v != 0 for v in k[1:top + 1]):
        raise TableRuleViolation(
            "bottom-exclusive", f"slot 0 set forces all higher slots to 0: {k}")
    if top >= 1 and k[top] == 1 and any(v != 0 for v in k[:top]):
        raise TableRuleViolation(
            "top-exclusive", f"slot nu-1 set forces all lower slots to 0: {k}")
    # so a non-zero interior slot has zero ends, and nu <= 3 one non-zero slot
    return k


@dataclass
class CriticalTypeTable:
    """Type-number vectors for iterates m = 1..K(y) of one orbit."""

    orbit_id: str
    dim_n: int
    K_of_y: int
    vectors: dict                  # m -> list of ints, length 2n-1
    degenerate_ms: list = field(default_factory=list)
    complete: bool = True

    def k(self, m: int) -> list:
        """Vector for any iterate via K(y)-periodicity."""
        mm = ((m - 1) % self.K_of_y) + 1
        return self.vectors[mm]


def critical_type_numbers(index_data: OrbitIndexData,
                          user_table) -> CriticalTypeTable:
    """Assemble the type-number table for iterates 1..K(y).

    Nondegenerate iterates (nullity 1) get slot 0 set exactly when
    i(y^m) - i(y) is even.  Degenerate iterates require entries in
    ``user_table`` ({m: vector}, or None for none); missing entries mark
    the orbit incomplete (excluded from the identity).
    Supplied vectors are validated against every structural rule, including
    periodicity consistency between entries K(y) apart.
    """
    n = index_data.dim_n
    K = index_data.K_of_y
    extend_records(index_data, K)
    width = 2 * n - 1
    user_table = {int(k): v for k, v in (user_table or {}).items()}
    # periodicity validation across user-supplied duplicates
    for m, vec in user_table.items():
        partner = ((m - 1) % K) + 1
        if partner != m and partner in user_table:
            if list(map(int, user_table[partner])) != list(map(int, vec)):
                raise TableRuleViolation(
                    "periodicity",
                    f"iterates {partner} and {m} are K(y)={K} apart but differ")
    vectors = {}
    degenerate = []
    complete = True
    i1 = index_data.index(1)
    for m in range(1, K + 1):
        nu = index_data.nullity(m)
        if nu == 1:
            vec = [0] * width
            if (index_data.index(m) - i1) % 2 == 0:
                vec[0] = 1
            vectors[m] = vec
        else:
            degenerate.append(m)
            if m in user_table:
                vectors[m] = validate_type_vector(user_table[m], nu, n)
            else:
                vectors[m] = [0] * width
                complete = False
    return CriticalTypeTable(orbit_id=index_data.orbit_id, dim_n=n, K_of_y=K,
                             vectors=vectors, degenerate_ms=degenerate,
                             complete=complete)


# ---------------------------------------------------------------------------
# Euler characteristics


def euler_characteristics(table: CriticalTypeTable,
                          index_data: OrbitIndexData):
    """Per-iterate alternating sums and their exact K(y)-periodic average.

    chi(y^m) = sum_l (-1)^(i(y^m)+l) k_l(y^m), an integer; the average over
    one K(y) window is an exact Fraction with denominator dividing K(y).
    """
    if table.orbit_id != index_data.orbit_id:
        raise InvalidArgument("table/index orbit mismatch")
    K = table.K_of_y
    chis = []
    for m in range(1, K + 1):
        i_m = index_data.index(m)
        chi = sum((-1)**((i_m + l) % 2) * kl
                  for l, kl in enumerate(table.vectors[m]))
        chis.append(int(chi))
    chi_hat = Fraction(sum(chis), K)
    return chis, chi_hat


def chi_partial_averages(table: CriticalTypeTable, index_data: OrbitIndexData,
                         N_max: int):
    """Exact running averages (1/N) sum_{m<=N} chi(y^m) for N = 1..N_max,
    computed from directly supplied indices (no periodic shortcut for i)."""
    extend_records(index_data, N_max)
    out = []
    total = 0
    for m in range(1, N_max + 1):
        i_m = index_data.index(m)
        vec = table.k(m)
        total += sum((-1)**((i_m + l) % 2) * kl for l, kl in enumerate(vec))
        out.append(Fraction(total, m))
    return out


# ---------------------------------------------------------------------------
# the resonance identity


@dataclass
class OrbitContribution:
    orbit_id: str
    mean_index: object            # float or Fraction
    mean_index_bar: float
    chi_hat: Fraction
    chis: list
    K_of_y: int
    excluded: bool = False
    reason: str = ""


@dataclass
class ResonanceReport:
    contributions: list
    S_plus: object                # Fraction when fully certified, else float
    S_plus_residual: float
    S_plus_exact: bool
    S_plus_bar: float
    S_zero: object
    S_zero_exact: bool
    conditional: bool
    excluded_orbits: list
    zero_mean_orbits: list

    def to_json_dict(self) -> dict:
        def enc(v):
            if isinstance(v, Fraction):
                return {"exact": f"{v.numerator}/{v.denominator}",
                        "float": float(v)}
            return {"exact": None, "float": float(v)}

        return {
            "S_plus": enc(self.S_plus),
            "S_plus_residual": float(self.S_plus_residual),
            "S_plus_exact": self.S_plus_exact,
            "S_plus_bar": float(self.S_plus_bar),
            "S_zero": enc(self.S_zero),
            "S_zero_exact": self.S_zero_exact,
            "conditional": self.conditional,
            "excluded_orbits": list(self.excluded_orbits),
            "zero_mean_orbits": list(self.zero_mean_orbits),
            "orbits": [{
                "id": c.orbit_id,
                "mean_index": enc(c.mean_index),
                "mean_index_bar": float(c.mean_index_bar),
                "chi_hat": enc(c.chi_hat),
                "chi": list(c.chis),
                "K_of_y": c.K_of_y,
                "excluded": c.excluded,
                "reason": c.reason,
            } for c in self.contributions],
        }


def identity_check(contributions) -> ResonanceReport:
    """Evaluate the two identity sums over the prime orbits.

    Orbits with mean index 0 (within ``_ZERO_TOL`` for floats, exactly for
    Fractions) are excluded from both sums and reported separately; orbits
    without complete type data make the result conditional.
    """
    S_plus = Fraction(0)
    S_zero = Fraction(0)
    plus_exact = True
    zero_exact = True
    bar_plus = 0.0
    excluded = []
    zero_mean = []
    for c in contributions:
        if c.excluded:
            excluded.append(c.orbit_id)
            continue
        ihat = c.mean_index
        is_frac = isinstance(ihat, Fraction)
        val = float(ihat)
        if (is_frac and ihat == 0) or (not is_frac and abs(val) <= _ZERO_TOL):
            zero_mean.append(c.orbit_id)
            continue
        term_exact = is_frac
        if val > 0:
            if term_exact and plus_exact:
                S_plus = S_plus + c.chi_hat / ihat
            else:
                S_plus = float(S_plus) + float(c.chi_hat) / val
                plus_exact = False
            bar_plus += abs(float(c.chi_hat)) * c.mean_index_bar / val**2
        else:
            if term_exact and zero_exact:
                S_zero = S_zero + c.chi_hat / ihat
            else:
                S_zero = float(S_zero) + float(c.chi_hat) / val
                zero_exact = False
    residual = abs(float(S_plus) - 0.5)
    return ResonanceReport(
        contributions=list(contributions), S_plus=S_plus,
        S_plus_residual=residual, S_plus_exact=plus_exact,
        S_plus_bar=bar_plus, S_zero=S_zero, S_zero_exact=zero_exact,
        conditional=bool(excluded), excluded_orbits=excluded,
        zero_mean_orbits=zero_mean)


# ---------------------------------------------------------------------------
# the series bookkeeping


@dataclass
class MorseSeries:
    """Windowed coefficients of the critical-point counting series."""

    C: int
    N: int
    w: dict                        # h -> coefficient, 2C <= |h| <= 2N
    eval_plus: int                 # alternating evaluation over [2C, 2N]
    eval_minus: int                # alternating evaluation over [-2N, -2C]
    count_bound_ok: bool
    C1: float                      # max coefficient seen

    def ratio_plus(self) -> float:
        return self.eval_plus / (2.0 * self.N)

    def ratio_minus(self) -> float:
        return self.eval_minus / (2.0 * self.N)


def morse_series(orbit_data, tables, *, N: int) -> MorseSeries:
    """Assemble w_h for 2C <= |h| <= 2N, C = 2n^2, from the per-iterate
    indices and type numbers of iterates sK(y)+m, for every iterate whose
    index can reach the window.

    Each coefficient receives, from orbit j with slot l and base iterate m,
    the number of s >= 0 with i(y^(sK+m)) + l = h; that count is bounded by
    4n/(K(y)|ihat|) + 2, which is checked and reported.
    """
    n = orbit_data[0].dim_n
    C = 2 * n * n
    if 2 * N <= 2 * C:
        raise InvalidArgument("need N > C")
    w = {}
    bound_ok = True
    for data, table in zip(orbit_data, tables):
        K = data.K_of_y
        ihat = float(data.mean_index_exact)
        # iterates needed: until the index leaves the window |h| <= 2N + slack
        q_need = int((2 * N + 4 * n + 2) / max(abs(ihat), 1e-9) + K + 2)
        extend_records(data, q_need)
        bound = 4.0 * n / (K * abs(ihat)) + 2.0 if ihat != 0 else np.inf
        worst = 0
        for m in range(1, K + 1):
            vec = table.vectors[m]
            for l, kl in enumerate(vec):
                if kl == 0:
                    continue
                cnt = {}
                for q in range(m, q_need + 1, K):
                    h = data.index(q) + l
                    if 2 * C <= abs(h) <= 2 * N:
                        w[h] = w.get(h, 0) + kl
                        cnt[h] = cnt.get(h, 0) + 1
                if cnt:
                    worst = max(worst, max(cnt.values()))
        if worst > bound:
            bound_ok = False
    eval_plus = sum(v * (-1)**(h % 2) for h, v in w.items() if h >= 2 * C)
    eval_minus = sum(v * (-1)**(h % 2) for h, v in w.items() if h <= -2 * C)
    C1 = float(max(w.values())) if w else 0.0
    return MorseSeries(C=C, N=N, w=w, eval_plus=int(eval_plus),
                       eval_minus=int(eval_minus), count_bound_ok=bound_ok,
                       C1=C1)


def series_ladder(orbit_data, tables, *, N_list, s_plus: float):
    """Evaluate the series over increasing windows and report the deviation
    |eval_plus - 2N * S_plus| at each rung (bounded uniformly in N)."""
    rungs = []
    for N in N_list:
        ms = morse_series(orbit_data, tables, N=N)
        dev = abs(ms.eval_plus - 2 * N * s_plus)
        rungs.append({"N": N, "series": ms, "deviation": dev,
                      "ratio_plus": ms.ratio_plus(),
                      "ratio_minus": ms.ratio_minus()})
    C2 = max(r["deviation"] for r in rungs)
    ratios = [r["deviation"] / (2 * r["N"]) for r in rungs]
    stable = all(ratios[i + 1] <= ratios[i] * 1.05 + 1e-12
                 for i in range(len(ratios) - 1))
    return rungs, C2, stable


def write_series_csv(series: MorseSeries, fname):
    with open(fname, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["h", "w_h"])
        for h in sorted(series.w):
            w.writerow([h, series.w[h]])
