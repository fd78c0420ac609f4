"""Bell-state families, the twist operator, preparation circuits and concurrence.

Two wire orders coexist throughout: the *interleaved* order
``i1 j1 ... in jn`` natural for n-fold tensor products of two-qubit Bell
pairs, and the *blocked* order ``i1 .. in j1 .. jn`` natural for viewing
the 2n qubits as two qudits of dimension 2^n.  The twist operator is the
permutation unitary taking interleaved to blocked; every constructor
here returns blocked order and the twist mediates whenever a formula is
stated in the other order.  Drift between the two orders is the main bug
risk in this whole domain, so both are first-class.

Bell states and the twist are built without Kronecker products with
the identity: Bell states are reshaped operators (``bell_vector``), and
the Bell-basis expansion is a Walsh-Hadamard transform.  The twist, the
SWAP circuits, the spin-flip ``(ZX)^(2n)`` of the concurrence oracle and
the words of a whole Bell family (``bell_unitaries``, one stack) are
monomial operators (``linalg.Monomial``): checked and applied from their
index and phase arrays, never as dense 4^n x 4^n matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .linalg import Monomial, basis_state, identity, permutation, random_state, residual
from .pauli import as_bits, bits_to_int, word
from .report import Report

_NORM_TOL = 1e-10


# ---------------------------------------------------------------------------
# circuits


@dataclass
class Circuit:
    """Ordered list of named gates over indexed wires; first gate acts first."""

    wires: int
    gates: list[tuple[str, tuple[int, ...]]] = field(default_factory=list)

    def _check(self, qs):
        for q in qs:
            if not 0 <= q < self.wires:
                raise ValueError(f"wire {q} out of range for {self.wires} wires")
        if len(set(qs)) != len(qs):
            raise ValueError(f"repeated wire in {qs}")

    def append(self, name: str, *qs: int) -> None:
        if name not in ("H", "X", "Z", "CNOT", "SWAP"):
            raise ValueError(f"unsupported gate {name!r}")
        self._check(qs)
        self.gates.append((name, tuple(qs)))

    def h(self, q: int) -> None:
        self.append("H", q)

    def x(self, q: int) -> None:
        self.append("X", q)

    def z(self, q: int) -> None:
        self.append("Z", q)

    def cnot(self, control: int, target: int) -> None:
        self.append("CNOT", control, target)

    def swap(self, a: int, b: int) -> None:
        self.append("SWAP", a, b)

    def to_monomial(self) -> Monomial:
        """The unitary of a circuit of SWAP and CNOT gates, a permutation, as a monomial.

        Each column's output ket is tracked as one bit array per wire: a
        SWAP swaps two wires' arrays and a CNOT flips the target's bits
        where the control's are set.
        """
        if any(name not in ("SWAP", "CNOT") for name, _ in self.gates):
            raise ValueError("only a circuit of SWAP and CNOT gates is built as a monomial")
        cols = np.arange(2**self.wires)
        bits = [(cols >> (self.wires - 1 - q)) & 1 for q in range(self.wires)]
        for name, qs in self.gates:
            if name == "SWAP":
                bits[qs[0]], bits[qs[1]] = bits[qs[1]], bits[qs[0]]
            else:
                bits[qs[1]] = bits[qs[1]] ^ bits[qs[0]]
        return Monomial(sum(b << (self.wires - 1 - q) for q, b in enumerate(bits)))

    def to_qasm(self) -> str:
        """OpenQASM 2.0 text; gate order is construction order, bit-exact."""
        names = {"H": "h", "X": "x", "Z": "z", "CNOT": "cx", "SWAP": "swap"}
        lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{self.wires}];"]
        for name, qs in self.gates:
            args = ",".join(f"q[{q}]" for q in qs)
            lines.append(f"{names[name]} {args};")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# state constructors


def omega(d: int) -> np.ndarray:
    """The maximally entangled two-qudit state (1/sqrt d) sum_i |ii>."""
    if d < 2:
        raise ValueError("local dimension must be at least 2")
    return bell_vector(identity(d))


def bell_vector(t: np.ndarray) -> np.ndarray:
    """``(T x 1)|Omega> = vec(T) / sqrt(D)``.

    ``|Omega> = sum_i |ii> / sqrt(D)``, so the amplitude of ``|jk>`` is
    ``T[j, k] / sqrt(D)``: the row-major flattening of one D x D matrix,
    scaled by ``1/sqrt(D)`` (``omega`` is ``T = 1``).  No D^2 x D^2
    Kronecker product is formed.  A ``(K, D, D)`` stack of ``T`` gives
    the ``(K, D^2)`` stack of states.
    """
    t = np.asarray(t, dtype=complex)
    # scaling into a C-ordered result flattens a strided (transposed) stack in the same pass
    return np.multiply(t, 1.0 / np.sqrt(t.shape[-1]), order="C").reshape(t.shape[:-2] + (-1,))


def bell2(alpha: int, beta: int) -> np.ndarray:
    """Two-qubit Bell state (Z^alpha X^beta tensor I)|phi(00)>."""
    return bell_vector(word(alpha, beta, n=1).dense())


def qudit_bell(d: int, alpha: int, beta: int) -> np.ndarray:
    """Generalized two-qudit Bell state (Z^alpha X^beta tensor I)|Omega>."""
    if not (0 <= alpha < d and 0 <= beta < d):
        raise ValueError(f"labels ({alpha},{beta}) out of range for d={d}")
    return bell_vector(word(alpha, beta, d=d).dense())


def twist_monomial(n: int) -> Monomial:
    """Permutation sending |i1 j1 ... in jn> to |i1 ... in j1 ... jn>."""
    perm = [0] * (2 * n)
    for k in range(n):
        perm[2 * k] = k
        perm[2 * k + 1] = n + k
    return permutation(perm, 2)


def twist_decomposition(n: int) -> Circuit:
    """The twist as a circuit of n(n-1)/2 adjacent SWAPs.

    Factor k walks the k-th pair's second qubit rightward across the
    not-yet-moved first qubits; factors are emitted innermost first so
    the circuit reproduces ``twist_monomial(n)`` exactly.
    """
    circ = Circuit(2 * n)
    for k in range(n - 1, 0, -1):
        for m in range(2 * k, n + k):
            circ.swap(m - 1, m)
    return circ


def twist_check(n: int, tol: float) -> Report:
    """The SWAP circuit reproduces the twist with n(n-1)/2 SWAPs; tau_4 is 1 x SWAP x 1.

    Both sides are monomials, compared by their index and phase arrays.
    """
    rep = Report("twist", {"n": n}, tolerance=tol)
    circ = twist_decomposition(n)
    rep.add("decomposition-matches-twist", residual(circ.to_monomial(), twist_monomial(n)))
    expected = n * (n - 1) // 2
    rep.add(f"swap-count={expected}", float(abs(len(circ.gates) - expected)), tol=0.5)
    if n == 2:
        middle_swap = Circuit(4, [("SWAP", (1, 2))]).to_monomial()
        rep.add("tau4-is-I.SWAP.I", residual(twist_monomial(2), middle_swap))
    return rep


def multi_bell(n: int, alpha, beta) -> np.ndarray:
    """Generalized 2n-qubit Bell state, blocked order: (T(ab) tensor I^n)|Omega_{2^n}>."""
    return bell_vector(word(bits_to_int(as_bits(alpha, n)), bits_to_int(as_bits(beta, n)), n=n).dense())


def pair_product_bell(n: int, alpha, beta) -> np.ndarray:
    """Interleaved-order n-fold tensor product of two-qubit Bell pairs, by outer products."""
    out = np.ones(1, dtype=complex)
    for ak, bk in zip(as_bits(alpha, n), as_bits(beta, n)):
        out = np.outer(out, bell2(ak, bk)).reshape(-1)
    return out


def prep_circuit(n: int, alpha, beta) -> Circuit:
    """Hadamard + CNOT ladder + Pauli layer preparing multi_bell from |0...0>."""
    a = as_bits(alpha, n)
    b = as_bits(beta, n)
    circ = Circuit(2 * n)
    for k in range(n):
        circ.h(k)
    for k in range(n):
        circ.cnot(k, n + k)
    for k in range(n):
        if b[k]:
            circ.x(k)
        if a[k]:
            circ.z(k)
    return circ


def product_ket(bits) -> np.ndarray:
    bits = as_bits(bits)
    return basis_state(2 ** len(bits), bits_to_int(bits))


def ghz_state(n: int, j_bits=0, l_bits=0, sign: int = 1) -> np.ndarray:
    """(|j l> +/- |~j ~l>)/sqrt(2) in blocked order, with ~ the bit complement."""
    j = as_bits(j_bits, n)
    l = as_bits(l_bits, n)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    jbar = tuple(1 - bit for bit in j)
    lbar = tuple(1 - bit for bit in l)
    return (product_ket(j + l) + sign * product_ket(jbar + lbar)) / np.sqrt(2)


# ---------------------------------------------------------------------------
# Bell-basis expansion and concurrence


def _walsh_hadamard(rows: np.ndarray, n: int) -> np.ndarray:
    """``H @ rows`` with ``H[a, j] = (-1)^(a.j)`` over n bits, by n butterflies."""
    out = rows.reshape((2,) * n + rows.shape[1:])
    for k in range(n):
        lo, hi = out.take(0, axis=k), out.take(1, axis=k)
        out = np.stack((lo + hi, lo - hi), axis=k)
    return out.reshape(rows.shape)


def _check_state(state: np.ndarray, n: int) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if state.shape != (4**n,):
        raise ValueError(f"expected a 2n-qubit state of dimension {4 ** n}, got {state.shape}")
    if abs(np.linalg.norm(state) - 1.0) > _NORM_TOL:
        raise ValueError("state is not normalized")
    return state


def expand_in_bell_basis(state: np.ndarray, n: int) -> np.ndarray:
    """Bell-basis amplitudes by a gather and a Walsh-Hadamard transform, O(n 4^n).

    ``amps[a, b]`` is the coefficient of the basis state with phase bits
    ``a`` and parity bits ``b`` read as big-endian integers.
    ``B(ab)`` has amplitude ``(-1)^(a.j) / sqrt(D)`` on ``|j, j xor b>``
    and 0 elsewhere, so with ``Psi = state.reshape(D, D)``,
    ``amps[a, b] = sum_j (-1)^(a.j) Psi[j, j xor b] / sqrt(D)``: gather
    ``G[j, b] = Psi[j, j xor b]``, then transform over ``a``.
    """
    state = _check_state(state, n)
    dim = 2**n
    j = np.arange(dim)[:, None]
    gathered = state.reshape(dim, dim)[j, j ^ j.T]
    return _walsh_hadamard(gathered, n) * (1.0 / np.sqrt(dim))


def concurrence(state: np.ndarray, n: int) -> float:
    """|sum (-1)^(number of k with alpha_k != beta_k) d(ab)^2| over the expansion."""
    a = np.arange(2**n)
    signs = 1.0 - 2.0 * (np.bitwise_count(a[:, None] ^ a[None, :]) & 1)
    return float(abs(np.sum(signs * expand_in_bell_basis(state, n) ** 2)))


def concurrence_oracle(state: np.ndarray, n: int) -> float:
    """Independent route: overlap with the spin-flipped conjugate state.

    The flip ``(ZX)^(2n)`` is the word ``T(1...1, 1...1)``, a signed bit
    complement, applied as a monomial in O(4^n) memory.
    """
    state = _check_state(state, n)
    flip = word(4**n - 1, 4**n - 1, n=2 * n)
    tilde = (-1.0) ** n * (flip @ state.conj())
    return abs(np.vdot(tilde, state))


def concurrence_check(n: int, trials: int, seed: int, tol: float) -> Report:
    """Formula against the spin-flip oracle on random states, plus the known values 1 and 0.

    A failing formula case names its ``trial``, counted from 0 (``Report``).
    """
    rng = np.random.default_rng(seed)
    rep = Report("concurrence", {"n": n, "trials": trials}, tolerance=tol, seed=seed)
    deviations = np.empty(trials)
    for t in range(trials):
        psi = random_state(4**n, rng)
        deviations[t] = abs(concurrence(psi, n) - concurrence_oracle(psi, n))
    rep.add(f"formula-vs-oracle ({trials} random states)", deviations, tol=1e-10, index="trial")
    rep.add("bell-state-is-1", abs(concurrence(multi_bell(n, 0, 0), n) - 1.0), tol=1e-10)
    rep.add("product-ket-is-0", concurrence(product_ket((0,) * (2 * n)), n), tol=1e-10)
    for sign, name in ((1, "+"), (-1, "-")):
        ghz = ghz_state(n, 0, 0, sign)
        rep.add(f"ghz{name}-is-1", abs(concurrence(ghz, n) - 1.0), tol=1e-10)
    return rep


def all_labels(n: int):
    """All 4^n (alpha, beta) bit-string pairs, lexicographic."""
    for a in product((0, 1), repeat=n):
        for b in product((0, 1), repeat=n):
            yield a, b


def bell_unitaries(d: int | None = None, n: int | None = None) -> tuple[list, Monomial]:
    """Labels and the words ``U_a`` of a Bell basis ``(U_a x 1)|Omega>``, as one ``(K, D)`` stack.

    Give exactly one size.  A qudit (``d``) has labels ``(alpha, beta)``
    in ``0..d-1`` and ``U_a = Z^alpha X^beta``; n qubits (``n``) have the
    bit-string labels of ``all_labels(n)`` and ``U_a = T(alpha beta)``.
    Labels are lexicographic.  Every word is a monomial matrix, so the
    family is one stacked ``Monomial`` (``pauli.word``): ``U_a[perm[a, j],
    j] = phase[a, j]``.  Its readers take products with M on either side
    (``M @ words``, ``words @ M``), group the labels by row map
    (``word_groups``) or, for dense operators, take the dense states
    ``bell_vector(words.dense())``.  The n-qubit phases are real signs, so
    ``T^T = T^dag``.
    """
    if (d is None) == (n is None):
        raise ValueError("give exactly one of d (qudit) or n (n qubits)")
    if d is not None:
        labels, shape = list(product(range(d), repeat=2)), (d, d)
    else:
        labels, shape = list(all_labels(n)), (2**n, 2**n)
    return labels, word(*np.indices(shape).reshape(2, -1, 1), n=n, d=d)


def word_groups(words: Monomial) -> tuple[np.ndarray, np.ndarray]:
    """The labels of a family of words grouped by row map, for batched products over the groups.

    Returns ``order``, the ``(G, K / G)`` label indices of each group in
    label order, and ``maps``, the ``(G, D)`` row map each group shares.
    The states ``(U_a x 1)|Omega>`` of group g have their nonzeros at the
    positions ``(maps[g, j], j)`` of the D x D grid of ``|jk>``.  A Bell
    family has one group per shift, and the groups' supports partition
    the D^2 positions, so two groups' states share no nonzero.  Any other
    family raises ValueError: no words, groups of unequal size (a label
    repeated), or supports that overlap or leave a gap (a shift repeated or
    dropped).  A partition has D maps, one per entry of column 0, so the
    labels are grouped by ``perm[:, 0]``; two different maps in one group
    overlap there.  One integer count then checks the partition.
    """
    rows = words.perm
    count, local = rows.shape
    if count and not count % local and (np.bincount(rows[:, 0], minlength=local) == count // local).all():
        order = np.argsort(rows[:, 0], kind="stable").reshape(local, -1)
        maps = rows[order[:, 0]]
        cover = np.bincount((maps * local + np.arange(local)).ravel(), minlength=local * local)
        if not np.count_nonzero(cover != 1) and (rows[order] == maps[:, None]).all():
            return order, maps
    raise ValueError(f"the row maps of these {count} words do not tile the {local}^2 positions of a Bell family")
