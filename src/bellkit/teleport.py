"""Teleportation equations as LHS/RHS residual checks, plus the
protocol's Born-rule outcome table.

Wire layout, fixed once: the sender holds the unknown state followed by
the first (blocked-order) half of the shared resource; the receiver
holds the second half.  Every equation is assembled as two full vectors
in that triple space and compared entrywise.

Variants and their M policy: the measurement family of the ``*22``
equations is (U_a M x 1)|Omega>-shaped, which is orthonormal only for
unitary M, so those variants reject non-unitary M; the ``*11`` variants
measure in the undecorated Bell family and accept any square M.
``qudit11p`` and ``qudit22p`` are aliases of ``qudit11`` and ``qudit22``:
same equations, same code path, same residuals at the same seed.

Qudits (``U_a = Z^alpha X^beta``) and n qubits (``U_a = T(alpha beta)``)
share one Bell family, ``bell.bell_unitaries``, and one assembler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import (
    all_labels,
    bell_unitaries,
    bell_vector,
    multi_bell,
    omega,
    pair_product_bell,
    twist,
)
from .linalg import (
    DEFAULT_TOL,
    basis_state,
    dagger,
    fold,
    haar_unitary,
    identity,
    is_unitary,
    random_state,
    residual,
)
from .pauli import PauliWord, gen_u, word_matrix
from .report import Report

QUDIT_VARIANTS = ("basic2", "qudit11", "qudit22", "qudit11p", "qudit22p")
NQUBIT_VARIANTS = ("nqubit11", "nqubit22")
UNITARY_M_REQUIRED = ("qudit22", "qudit22p", "nqubit22")
# How teleport_eq_suite samples M: the identity, Haar-unitary, or complex Gaussian.
M_MODES = ("identity", "unitary", "general")


@dataclass
class TeleportEqCase:
    """One teleportation equation instance: variant, sizes, M, resource label, input."""

    variant: str
    psi: np.ndarray
    m: np.ndarray
    label: tuple
    d: int | None = None
    n: int | None = None

    def __post_init__(self):
        if self.variant not in QUDIT_VARIANTS + NQUBIT_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        self.psi = np.asarray(self.psi, dtype=complex)
        self.m = np.asarray(self.m, dtype=complex)
        if abs(np.linalg.norm(self.psi) - 1.0) > 1e-10:
            raise ValueError("input state is not normalized")
        if self.variant in UNITARY_M_REQUIRED and not is_unitary(self.m):
            raise ValueError(f"variant {self.variant} requires a unitary M")


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


def _sizes(variant: str, d: int | None, n: int | None) -> tuple[int | None, int, dict]:
    """Resolve a variant's ``(d, D)`` and the size its report records.

    ``basic2`` fixes ``d = 2``; n qubits need n and have no ``d``.
    """
    if variant in QUDIT_VARIANTS:
        if variant == "basic2":
            d = 2
        if d is None:
            raise ValueError("qudit variant needs d")
        return d, d, {"d": d}
    if variant in NQUBIT_VARIANTS:
        if n is None:
            raise ValueError("n-qubit variant needs n")
        return None, 2**n, {"n": n}
    raise ValueError(f"unknown variant {variant!r}")


@dataclass
class _Outcomes:
    """The label-independent half of one variant's right-hand side.

    ``labels`` are the outcome labels in ``bell_unitaries`` order.
    ``meas`` is the K x D^2 stack of measurement vectors:
    ``(U_a x 1)|Omega>`` for the ``*11`` variants, ``(U_a x M)|Omega>``
    for the ``*22`` ones.  ``forward`` and ``inverse`` hold, per outcome,
    the matrices ``U_a`` and ``U_a^dag`` (``T(a)`` and ``T^dag(a)`` for
    n qubits).  Built once per suite call and shared by every resource
    label.
    """

    labels: list
    meas: np.ndarray
    forward: list
    inverse: list


def _outcomes(variant: str, m: np.ndarray, d: int | None = None, n: int | None = None) -> _Outcomes:
    labels, mats = bell_unitaries(d=d) if variant in QUDIT_VARIANTS else bell_unitaries(n=n)
    right = m if variant in UNITARY_M_REQUIRED else None
    meas = np.array([bell_vector(u, right) for u in mats])
    return _Outcomes(labels, meas, mats, [dagger(u) for u in mats])


def _assemble(
    case: TeleportEqCase, out: _Outcomes, corrupt: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of one teleportation equation in the C x A x B triple space.

    LHS is ``psi x resource``.  RHS is ``(1/D) sum_a meas_a x out_a``,
    computed as ``(meas.T @ outs).reshape(-1) / D`` with ``outs`` the K x D
    stack of receiver states ``out_a = [M] U_b^T U_a^dag psi`` (``[M]`` on
    the ``*11`` forms only).  One formula serves qudits and n qubits: a
    Pauli word is a real signed permutation, so ``T(b)^T = T^dag(b)`` and
    the n-qubit correction ``T^dag(b) T^dag(a) psi`` is the same product.
    ``corrupt`` leaves ``U_a`` undaggered, the linearity-reduction
    falsifiability control.
    """
    m, psi = case.m, case.psi
    if case.variant in QUDIT_VARIANTS:
        t_b = gen_u(case.d, *case.label)
    else:
        t_b = word_matrix(PauliWord(*case.label))
    undo = out.forward if corrupt else out.inverse
    outs = np.array([u @ psi for u in undo]) @ t_b  # rows (U_b^T U_a^dag psi)^T
    if case.variant in UNITARY_M_REQUIRED:
        resource = bell_vector(m @ t_b)  # |M Omega(b)>
    else:
        resource = bell_vector(t_b, m)  # |Omega M^T(b)>
        outs = outs @ m.T
    lhs = np.kron(psi, resource)
    rhs = (out.meas.T @ outs).reshape(-1) / t_b.shape[0]
    return lhs, rhs


def teleport_eq_check(case: TeleportEqCase, tol: float = DEFAULT_TOL) -> Report:
    lhs, rhs = _assemble(case, _outcomes(case.variant, case.m, case.d, case.n))
    rep = Report(
        "teleport-eq",
        {"variant": case.variant, "d": case.d, "n": case.n, "label": str(case.label)},
        tolerance=tol,
    )
    rep.add(f"{case.variant} label={case.label}", residual(lhs, rhs))
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
    d, dim, size = _sizes(variant, d, n)
    if variant == "basic2":
        m_mode = "identity"
    rep = Report("teleport-eq", {"variant": variant, **size, "m": m_mode}, tolerance=tol, seed=seed)
    psi = random_state(dim, rng)
    if m_mode == "identity":
        m = identity(dim)
    elif m_mode == "general":
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    else:
        m = haar_unitary(dim, rng)
    out = _outcomes(variant, m, d, n)
    for lab in out.labels:
        case = TeleportEqCase(variant, psi, m, lab, d=d, n=n)
        lhs, rhs = _assemble(case, out)
        rep.add(f"label={lab}", residual(lhs, rhs))
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

    ``projective_qudit``: measure in |Omega M^T(a)>, resource |M Omega>,
    receiver picks up U_a^dag psi (correction U_a).
    ``projective_qudit11``: measure in |Omega(a)>, resource (1 x M)|Omega>,
    receiver picks up M U_a^dag psi (correction U_a M^dag).
    ``projective_nqubit``: ``projective_qudit`` over the n-qubit family
    with ``M = 1``: measure in |B(ab)>, resource |B>, receiver picks up
    T^dag(ab) psi.  Only the qudit variants draw M (before psi).
    """
    rng = np.random.default_rng(seed)
    if variant in ("projective_qudit", "projective_qudit11"):
        if d is None:
            raise ValueError("qudit variant needs d")
        if m is None:
            m = haar_unitary(d, rng)
        if not is_unitary(m):
            raise ValueError("projective qudit variants require unitary M")
        size = {"d": d}
    elif variant == "projective_nqubit":
        if n is None:
            raise ValueError("n-qubit variant needs n")
        m = identity(2**n)
        size = {"n": n}
    else:
        raise ValueError(f"unknown variant {variant!r}")
    labels, mats = bell_unitaries(**size)
    rep = Report("projective-eq", {"variant": variant, **size}, tolerance=tol, seed=seed)
    dim = m.shape[0]
    psi = random_state(dim, rng)
    eleven = variant == "projective_qudit11"
    resource = bell_vector(identity(dim), m) if eleven else bell_vector(m)
    prepared = np.kron(psi, resource).reshape(dim * dim, dim)
    for label, ua in zip(labels, mats):
        if eleven:
            meas = bell_vector(ua)  # |Omega(a)>
            receiver = m @ dagger(ua) @ psi
        else:
            meas = bell_vector(ua, m)  # |Omega M^T(a)>
            receiver = dagger(ua) @ psi
        lhs = np.kron(meas, meas.conj() @ prepared)
        rhs = np.kron(meas, receiver) / dim
        rep.add(f"outcome={label}", residual(lhs, rhs))
    return rep


# ---------------------------------------------------------------------------
# protocol outcomes


def protocol_outcomes(
    psi: np.ndarray,
    variant: str,
    m: np.ndarray | None = None,
    resource: np.ndarray | None = None,
):
    """Deterministic outcome table: (label, probability, fidelity, output, correction).

    Outcomes and corrections come from ``bell_unitaries``: outcome ``a``
    is corrected by ``U_a M^dag`` for qudits and by ``T(a)`` for n qubits
    (``M = 1``).  A non-default ``resource`` (e.g. a Schmidt-skewed state)
    is allowed so that loss of fidelity can be demonstrated.
    """
    psi = np.asarray(psi, dtype=complex)
    rows = []
    dim = psi.shape[0]
    if variant in ("basic2", "qudit"):
        m = identity(dim) if m is None else np.asarray(m, dtype=complex)
        if not is_unitary(m):
            raise ValueError("protocol requires a unitary M")
        if resource is None:
            resource = bell_vector(identity(dim), m)
        labels, mats = bell_unitaries(d=dim)
        m_dag, name = dagger(m), "U({},{})·M†"
    elif variant == "nqubit":
        if resource is None:
            resource = omega(dim)
        labels, mats = bell_unitaries(n=dim.bit_length() - 1)
        m_dag, name = identity(dim), "T({},{})"  # M = 1 for n qubits
    else:
        raise ValueError(f"unknown protocol variant {variant!r}")
    prepared = np.kron(psi, resource).reshape(dim * dim, dim)
    for label, u in zip(labels, mats):
        branch = bell_vector(u).conj() @ prepared  # (<Omega(a)| x 1)(psi x resource)
        prob = float(np.linalg.norm(branch) ** 2)
        post = branch / np.linalg.norm(branch)
        corrected = u @ m_dag @ post
        rows.append(
            (label, prob, float(abs(np.vdot(psi, corrected))), corrected, name.format(*label))
        )
    total = sum(r[1] for r in rows)
    if abs(total - 1.0) > 1e-12:
        raise AssertionError(f"outcome probabilities sum to {total}, not 1")
    return rows


def skewed_resource(d: int, weights) -> np.ndarray:
    """Non-maximally entangled control: sum_i w_i |ii> with w normalized."""
    w = np.asarray(weights, dtype=complex)
    if w.shape != (d,):
        raise ValueError("need d Schmidt weights")
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = w / np.linalg.norm(w)
    return vec


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
    d, dim, size = _sizes(variant, d, n)
    rep = Report("linearity-reduction", {"variant": variant, **size}, tolerance=tol, seed=seed)
    label = (0, 1) if variant in QUDIT_VARIANTS else ((0,) * n, (1,) * n)
    out = _outcomes(variant, identity(dim), d, n)

    def sides(psi, corrupt=False):
        case = TeleportEqCase(variant, psi, identity(dim), label, d=d, n=n)
        return _assemble(case, out, corrupt)

    basis = [basis_state(dim, i) for i in range(dim)]
    rep.add("all-basis-inputs", fold(residual(*sides(psi)) for psi in basis))
    rep.add("random-superposition", residual(*sides(random_state(dim, rng))))
    # Control: drop the dagger on the outcome correction; some basis input must fail.
    rep.add_expect_fail(
        "corrupted-correction-fails",
        fold(residual(*sides(psi, corrupt=True)) for psi in basis),
        1e-6,
    )

    if variant in NQUBIT_VARIANTS:
        tau = twist(n)
        rep.add(
            "blocked-equals-twisted-interleaved",
            fold(
                residual(multi_bell(n, a, b), tau @ pair_product_bell(n, a, b))
                for a, b in all_labels(n)
            ),
        )
    return rep
