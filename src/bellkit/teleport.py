"""Teleportation equations as LHS/RHS residual checks, plus the
protocol's Born-rule outcome table.

Wire layout, fixed once: the sender holds the unknown state followed by
the first (blocked-order) half of the shared resource; the receiver
holds the second half.  Every equation is assembled as two full vectors
in that triple space and compared entrywise.

Every check reads one teleportation setting, ``_Setting``: a Bell family
from ``bell.bell_unitaries`` (qudits ``U_a = Z^alpha X^beta`` sized by
``d``, n qubits ``U_a = T(alpha beta)`` sized by ``n``), a matrix M and
a form.  Form 11 measures in the plain Bell family ``(U_a x 1)|Omega>``
and puts M on the receiver's half of the resource, ``(U_b x M)|Omega>``.
Form 22 measures in ``(U_a x M)|Omega>`` with resource ``|M Omega(b)>``;
that family is orthonormal only for unitary M, so form 22 refuses any
other M.  ``teleport-eq`` sums both sides over every outcome,
``projective-eq`` compares them outcome by outcome at b = 0, and
``protocol`` samples outcomes by the Born rule at b = 0.

    check          variant              family   form   M
    teleport-eq    basic2               d = 2    11     1
    (and           qudit11, qudit11p    d        11     any square M
    linearity-     qudit22, qudit22p    d        22     unitary
    reduction)     nqubit11             n        11     any square M
                   nqubit22             n        22     unitary
    projective-eq  projective_qudit     d        22     unitary
                   projective_qudit11   d        11     unitary
                   projective_nqubit    n        22     1
    protocol       basic2, qudit        d        11     unitary (default 1)
                   nqubit               n        11     1

``qudit11p`` and ``qudit22p`` are aliases of ``qudit11`` and ``qudit22``:
same equations, same code path, same residuals at the same seed.
"""

from __future__ import annotations

import numpy as np

from .bell import all_labels, bell_unitaries, bell_vector, multi_bell, omega, pair_product_bell, twist_monomial
from .linalg import (
    DEFAULT_TOL,
    basis_state,
    blocks,
    dagger,
    fold,
    haar_unitary,
    identity,
    is_unitary,
    random_state,
    residual,
)
from .report import Report

# Each check's variants: name -> (the size that picks the Bell family, form).
_VARIANTS = {
    "teleport-eq": {
        "basic2": ("d", 11), "qudit11": ("d", 11), "qudit22": ("d", 22), "qudit11p": ("d", 11),
        "qudit22p": ("d", 22), "nqubit11": ("n", 11), "nqubit22": ("n", 22),
    },
    "projective-eq": {
        "projective_qudit": ("d", 22), "projective_qudit11": ("d", 11), "projective_nqubit": ("n", 22),
    },
    "protocol": {"basic2": ("d", 11), "qudit": ("d", 11), "nqubit": ("n", 11)},
}
# projective-eq also takes the teleport-eq style names of its variants; its
# reports record the full name.  basic2 fixes d = 2, as in teleport-eq.
_ALIASES = {
    "projective-eq": {
        "basic2": "projective_qudit", "qudit": "projective_qudit", "qudit11": "projective_qudit11",
        "nqubit": "projective_nqubit",
    },
}
QUDIT_VARIANTS = tuple(v for v, (size, _) in _VARIANTS["teleport-eq"].items() if size == "d")
NQUBIT_VARIANTS = tuple(v for v, (size, _) in _VARIANTS["teleport-eq"].items() if size == "n")
# How teleport_eq_suite samples M: the identity, Haar-unitary, or complex Gaussian.
M_MODES = ("identity", "unitary", "general")
# The equation checks walk the labels in blocks whose stacked sides hold at
# most this many entries each: every label at once up to D = 8, and a working
# set that stays in cache (and in memory) at larger D.
BLOCK_ENTRIES = 2**16


class _Setting:
    """One variant's teleportation setting, built once per check call.

    ``variant`` is the full name (an alias resolved), ``size`` the one
    size the report records, ``{"d": d}`` or ``{"n": n}`` (``basic2``
    fixes d = 2), and ``dim`` is D.  ``labels`` and the K x D x D stack
    ``forward`` (``U_a``) follow ``bell_unitaries`` order.  ``use(m)`` sets
    M and builds ``meas``, the K x D^2 stack of measurement vectors.
    """

    def __init__(self, check: str, variant: str, d: int | None = None, n: int | None = None):
        self.check, self.variant = check, _ALIASES.get(check, {}).get(variant, variant)
        if self.variant not in _VARIANTS[check]:
            raise ValueError(f"unknown {check} variant {variant!r}")
        family, self.form = _VARIANTS[check][self.variant]
        size = 2 if variant == "basic2" else {"d": d, "n": n}[family]
        if size is None:
            raise ValueError(f"variant {variant} needs {family}")
        self.size = {family: size}
        self.labels, self.forward = bell_unitaries(**self.size)
        self.dim = self.forward.shape[-1]

    def use(self, m: np.ndarray) -> None:
        """Set M and build ``meas``; only the teleport-eq 11 forms hold for any square M."""
        m = np.asarray(m, dtype=complex)
        if (self.form == 22 or self.check != "teleport-eq") and not is_unitary(m):
            raise ValueError(f"variant {self.variant} requires a unitary M")
        self.m = m
        self.meas = bell_vector(self.forward, m if self.form == 22 else None)

    def resource(self, b) -> np.ndarray:
        """``|M Omega(b)>`` in form 22, ``(U_b x M)|Omega>`` in form 11.

        ``b`` is one label index, or an index array or slice of B labels,
        which gives the ``(B, D^2)`` stack.
        """
        t_b = self.forward[b]
        return bell_vector(self.m @ t_b) if self.form == 22 else bell_vector(t_b, self.m)

    def receivers(self, psi: np.ndarray, b, corrupt: bool = False) -> np.ndarray:
        """The K x D stack of receiver states ``[M] U_b^T U_a^dag psi``, ``[M]`` in form 11.

        One formula serves qudits and n qubits: a Pauli word is a real
        signed permutation, so ``T(b)^T = T^dag(b)``.  ``corrupt`` leaves
        ``U_a`` undaggered, the linearity-reduction falsifiability control.
        A block of B label indices ``b`` gives the ``(B, K, D)`` stack.
        ``U_a^dag psi`` is ``conj(psi^dag U_a)``, so no ``U_a^dag`` stack is formed.
        """
        undone = self.forward @ psi if corrupt else (psi.conj() @ self.forward).conj()
        outs = undone @ self.forward[b]  # rows (U_b^T U_a^dag psi)^T
        return outs @ self.m.T if self.form == 11 else outs

    def block_sides(self, psi: np.ndarray, labels, corrupt: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """``psi x resource(b)`` and ``(1/D) sum_a meas_a x receiver_a`` in the C x A x B
        space, as two ``(B, D^3)`` stacks over the B label indices ``labels``.

        The left side is the broadcast outer product, the same products as
        ``np.kron``.  The right side is one stacked product of the ``(D^2, K)``
        measurement stack with each label's ``(K, D)`` receivers, which sums
        each label as its own product would.  One ``(D^2, K) x (K, B D)`` GEMM
        with the receivers side by side moves the last bit at D = 2, 3, 5.
        """
        res = self.resource(labels)
        count = len(res)
        lhs = (psi[:, None] * res[:, None, :]).reshape(count, -1)
        rhs = np.matmul(self.meas.T, self.receivers(psi, labels, corrupt)).reshape(count, -1) / self.dim
        return lhs, rhs

    def branches(self, prepared: np.ndarray) -> np.ndarray:
        """Every measurement branch ``(<meas_a| x 1) prepared``, for ``prepared`` as a D^2 x D matrix.

        One product of (1, D^2) rows, each summed as the per-row
        vector-matrix product is; one (K, D^2) x (D^2, D) GEMM sums in
        another order and moves the last bit.  Conjugating ``prepared``
        (D^3), not the K x D^2 ``meas`` stack, keeps the copy small.
        """
        return np.matmul(self.meas[:, None, :], prepared.conj())[:, 0].conj()


def transfer_identity_check(d: int, seed: int = 0, tol: float = DEFAULT_TOL) -> Report:
    """<Omega|_CA (|psi>_C |Omega>_AB) = (1/d)|psi>_B, checked on random psi.

    The partial contraction is ``<Omega| @ (psi x Omega).reshape(d^2, d)``.
    """
    if d > 16:
        raise ValueError("d capped at 16")
    rng = np.random.default_rng(seed)
    rep = Report("transfer-identity", {"d": d}, tolerance=tol, seed=seed)
    bra = omega(d).conj()

    def contract(psi):
        return bra @ np.kron(psi, omega(d)).reshape(d * d, d)

    psi = random_state(d, rng)
    lhs = contract(psi)
    rep.add("random-psi", residual(lhs, psi / d))
    rep.add("lhs-norm-is-1/d", abs(np.linalg.norm(lhs) - 1.0 / d))
    if d == 2:
        e0 = basis_state(2, 0)
        rep.add("psi=|0> gives |0>/2", residual(contract(e0), e0 / 2))
    return rep


def teleport_eq_suite(
    variant: str,
    d: int | None = None,
    n: int | None = None,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    m_mode: str = "unitary",
) -> Report:
    """Run one variant over all resource labels with a sampled M (``basic2``: M = 1)."""
    if m_mode not in M_MODES:
        raise ValueError(f"m_mode must be one of {'|'.join(M_MODES)}, got {m_mode!r}")
    rng = np.random.default_rng(seed)
    setting = _Setting("teleport-eq", variant, d, n)
    if variant == "basic2":
        m_mode = "identity"
    rep = Report("teleport-eq", {"variant": variant, **setting.size, "m": m_mode}, tolerance=tol, seed=seed)
    dim = setting.dim
    psi = random_state(dim, rng)
    if m_mode == "identity":
        m = identity(dim)
    elif m_mode == "general":
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    else:
        m = haar_unitary(dim, rng)
    setting.use(m)
    for block in blocks(len(setting.labels), dim**3, BLOCK_ENTRIES):
        diffs = np.abs(np.subtract(*setting.block_sides(psi, block)))
        for lab, diff, worst in zip(setting.labels[block], diffs, diffs.max(axis=1)):
            # argmax returns the first NaN entry if there is one, else the first worst one
            witness = f" witness=entry {np.argmax(diff)}" if not worst < tol else ""
            rep.add(f"label={lab}{witness}", worst)
    return rep


# ---------------------------------------------------------------------------
# projective equations


def projective_eq_check(
    variant: str,
    d: int | None = None,
    n: int | None = None,
    m: np.ndarray | None = None,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Projector-applied teleportation equations, every outcome swept.

    ``(|m><m| x 1)(psi x resource) = m x (<m| @ prepared.reshape(D^2, D))``,
    so each outcome costs one D^2 x D contraction, not a D^3 x D^3 projector.
    The resource, measurement and receiver states are the setting's at
    b = 0: ``projective_qudit`` is form 22 (receiver U_a^dag psi, correction
    U_a), ``projective_qudit11`` form 11 (receiver M U_a^dag psi, correction
    U_a M^dag), ``projective_nqubit`` form 22 over n qubits with M = 1.
    Only the qudit variants draw M (before psi).
    """
    rng = np.random.default_rng(seed)
    setting = _Setting("projective-eq", variant, d, n)
    dim = setting.dim
    if setting.variant == "projective_nqubit":
        m = identity(dim)
    elif m is None:
        m = haar_unitary(dim, rng)
    setting.use(m)
    rep = Report("projective-eq", {"variant": setting.variant, **setting.size}, tolerance=tol, seed=seed)
    psi = random_state(dim, rng)
    branches = setting.branches(np.kron(psi, setting.resource(0)).reshape(dim * dim, dim))
    receivers = setting.receivers(psi, 0)
    for block in blocks(len(setting.labels), dim**3, BLOCK_ENTRIES):
        meas = setting.meas[block, :, None]
        diffs = np.abs(meas * branches[block, None, :] - meas * receivers[block, None, :] / dim)
        for label, worst in zip(setting.labels[block], diffs.max(axis=(1, 2))):
            rep.add(f"outcome={label}", worst)
    return rep


# ---------------------------------------------------------------------------
# protocol outcomes


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[k] . b[k]`` for every row k, unconjugated; ``a`` may be one row for all.

    A stack of (1, D) x (D, 1) products: each is the BLAS dot that
    ``np.dot``, ``np.vdot`` and ``np.linalg.norm`` run on one vector, so each
    row sums in the order a per-row call would, bit for bit.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def protocol_outcomes(
    psi: np.ndarray,
    variant: str,
    m: np.ndarray | None = None,
    resource: np.ndarray | None = None,
):
    """Deterministic outcome table: (label, probability, fidelity, output, correction).

    Measures in the form-11 setting at b = 0: outcome ``a`` is corrected by
    ``U_a M^dag`` for qudits and by ``T(a)`` for n qubits (``M = 1``).  Every
    outcome is computed at once, from stacked products over the K labels.  A
    non-default ``resource`` (e.g. a Schmidt-skewed state) is allowed so
    that loss of fidelity can be demonstrated.
    """
    psi = np.asarray(psi, dtype=complex)
    dim = psi.shape[0]
    setting = _Setting("protocol", variant, d=dim, n=dim.bit_length() - 1)
    qubits = "n" in setting.size
    setting.use(identity(dim) if m is None or qubits else m)
    if resource is None:
        resource = setting.resource(0)
    branches = setting.branches(np.kron(psi, resource).reshape(dim * dim, dim))
    norms = np.sqrt(_row_dots(branches.real, branches.real) + _row_dots(branches.imag, branches.imag))
    probs = norms**2
    if abs(probs.sum() - 1.0) > 1e-12:
        raise AssertionError(f"outcome probabilities sum to {probs.sum()}, not 1")
    # each post-measurement state times its correction U_a M^dag, one stacked product
    corrections = setting.forward @ dagger(setting.m)
    corrected = np.matmul(corrections, (branches / norms[:, None])[..., None])[..., 0]
    fidelities = np.abs(_row_dots(psi.conj(), corrected))
    name = "T({},{})" if qubits else "U({},{})·M†"
    names = [name.format(*label) for label in setting.labels]
    return list(zip(setting.labels, probs.tolist(), fidelities.tolist(), corrected, names))


def sample_histogram(probs: np.ndarray, samples: int, rng: np.random.Generator) -> np.ndarray:
    """How many of ``samples`` Born-rule draws land on each outcome, in outcome order.

    The same counts as ``np.bincount(rng.choice(K, samples, p=probs / probs.sum()),
    minlength=K)`` from the same generator state: ``choice`` draws
    ``rng.random(samples)`` and puts a draw ``u`` on the first outcome whose
    normalized cdf exceeds it, so outcome k takes the draws in
    ``[cdf[k-1], cdf[k])``.  Sorting the draws counts them with one binary
    search per outcome instead of one per draw.
    """
    p = np.asarray(probs, dtype=float) / np.sum(probs)
    if not np.all(p >= 0):
        raise ValueError("probabilities must be non-negative and not NaN")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return np.diff(np.searchsorted(np.sort(rng.random(samples)), cdf), prepend=0)


# ---------------------------------------------------------------------------
# linearity reduction


def linearity_reduction_check(
    variant: str,
    d: int | None = None,
    n: int | None = None,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Basis-input instances imply the random-superposition instance.

    Includes a falsifiability control (correction with the dagger
    dropped must fail on some basis input) and, for the n-qubit variant,
    a cross-check that the blocked resource equals the twist applied to
    the interleaved pair-product resource.
    """
    rng = np.random.default_rng(seed)
    setting = _Setting("teleport-eq", variant, d, n)
    dim = setting.dim
    rep = Report("linearity-reduction", {"variant": variant, **setting.size}, tolerance=tol, seed=seed)
    setting.use(identity(dim))
    at = setting.labels.index((0, 1) if variant in QUDIT_VARIANTS else ((0,) * n, (1,) * n))
    basis = [basis_state(dim, i) for i in range(dim)]
    rep.add("all-basis-inputs", fold(residual(*setting.block_sides(psi, [at])) for psi in basis))
    rep.add("random-superposition", residual(*setting.block_sides(random_state(dim, rng), [at])))
    # Control: drop the dagger on the outcome correction; some basis input must fail.
    rep.add_expect_fail(
        "corrupted-correction-fails",
        fold(residual(*setting.block_sides(psi, [at], corrupt=True)) for psi in basis),
        1e-6,
    )

    if variant in NQUBIT_VARIANTS:
        tau = twist_monomial(n)
        rep.add(
            "blocked-equals-twisted-interleaved",
            fold(
                residual(multi_bell(n, a, b), tau @ pair_product_bell(n, a, b))
                for a, b in all_labels(n)
            ),
        )
    return rep
