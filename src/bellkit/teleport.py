"""Teleportation equations as LHS/RHS residual checks, plus the
protocol's Born-rule outcome table.

Wire layout, fixed once: the sender holds the unknown state followed by
the first (blocked-order) half of the shared resource; the receiver
holds the second half.  A ``teleport-eq`` equation is one D^2 x D
difference ``E`` in that triple space, the sender's wires on its rows
and the receiver's on its columns: each label's two sides are two D^2 x D
matrices times one operator, and their difference is ``E`` times it;
``projective-eq`` compares the two factors of each outcome's difference.

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

from .bell import (
    all_labels,
    bell_unitaries,
    bell_vector,
    multi_bell,
    omega,
    pair_product_bell,
    twist_monomial,
    word_groups,
)
from .linalg import (
    DEFAULT_TOL,
    basis_state,
    blocks,
    fold,
    haar_unitary,
    identity,
    is_unitary,
    random_state,
    residual,
    walk,
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


class _Setting:
    """One variant's teleportation setting, built once per check call.

    ``variant`` is the full name (an alias resolved), ``size`` the one
    size the report records, ``{"d": d}`` or ``{"n": n}`` (``basic2``
    fixes d = 2), and ``dim`` is D.  ``labels`` and ``words``, the
    family's stacked ``Monomial`` with ``U_a[perm[a, j], j] = phase[a,
    j]``, follow ``bell_unitaries`` order, and ``order`` and ``maps`` group
    the labels by row map (``bell.word_groups``).  Every side is a product
    of the words with M or a product over the groups: no K x D x D stack of
    ``U_a`` and no K x D^2 stack of measurement vectors is formed.
    ``use(m)`` sets M, ``send(psi)`` sets psi and builds the right
    sides' one matrix ``q``, and ``difference()`` is the equation's one
    D^2 x D difference ``E``, from which every label's residual is read.
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
        self.labels, self.words = bell_unitaries(**self.size)
        self.dim = self.words.dim
        self.order, self.maps = word_groups(self.words)

    def use(self, m: np.ndarray) -> None:
        """Set M; only the teleport-eq 11 forms hold for any square M."""
        m = np.asarray(m, dtype=complex)
        if (self.form == 22 or self.check != "teleport-eq") and not is_unitary(m):
            raise ValueError(f"variant {self.variant} requires a unitary M")
        self.m = m

    def _operators(self, b) -> np.ndarray:
        """``M U_b`` in form 22, ``U_b M^T`` in form 11, for the label indices ``b``: ``(B, D, D)``."""
        return self.m @ self.words[b] if self.form == 22 else self.words[b] @ self.m.T

    def resource(self, b) -> np.ndarray:
        """``|M Omega(b)>`` in form 22, ``(U_b x M)|Omega>`` in form 11, as a ``(B, D^2)`` stack
        over an index array or slice ``b`` of B labels."""
        return bell_vector(self._operators(b))

    def meas(self, b) -> np.ndarray:
        """The ``(B, D^2)`` measurement vectors ``(U_a x M)|Omega>`` (form 22) or ``(U_a x 1)|Omega>`` (form 11)."""
        return bell_vector(self.words[b] @ self.m.T if self.form == 22 else self.words[b].dense())

    def meas_max(self) -> np.ndarray:
        """``max|meas_a|`` of every label, from the words: row ``perm[a, j]`` of ``U_a M^T`` is
        ``phase[a, j]`` times column j of M (form 22), of ``U_a`` just ``phase[a, j]`` (form 11)."""
        scale = np.abs(self.words.phase)
        if self.form == 22:
            scale = scale * np.abs(self.m).max(axis=0)
        return scale.max(axis=1) * (1.0 / np.sqrt(self.dim))

    def undone(self, psi: np.ndarray, corrupt: bool = False) -> np.ndarray:
        """The ``(K, D)`` rows ``U_a^dag psi``: entry j is ``conj(phase[a, j]) psi[perm[a, j]]``, one gather.

        ``corrupt`` leaves ``U_a`` undaggered, the linearity-reduction
        falsifiability control: ``U_a psi``.
        """
        if corrupt:
            return self.words @ psi
        return self.words.phase.conj() * psi[self.words.perm]

    def receivers(self, psi: np.ndarray) -> np.ndarray:
        """The K x D stack of receiver states ``[M] U_b^T U_a^dag psi`` at b = 0, ``[M]`` in form 11.

        One formula serves qudits and n qubits: rows ``(U_a^dag psi)^T U_b``
        are a column gather of ``undone``, and a Pauli word is a real
        signed permutation, so ``T(b)^T = T^dag(b)``.
        """
        outs = self.undone(psi) @ self.words[0]
        return outs @ self.m.T if self.form == 11 else outs

    def send(self, psi: np.ndarray, corrupt: bool = False) -> None:
        """Set psi and build ``q = (1/D) sum_a meas_a x (U_a^dag psi)^T``, a D^2 x D matrix.

        Label b's right side ``(1/D) sum_a meas_a x (U_a^dag psi)^T U_b [M^T]``
        is then ``q U_b [M^T]``, since ``U_b`` factors out of the sum.  In
        form 11, ``meas_a`` holds ``phase[a, j] / sqrt(D)`` at ``(perm[a,
        j], j)``, so ``q`` is one batched GEMM of the phases with ``undone``
        per row map, written at the map's positions, which the maps
        partition (``bell.word_groups``); form 22 then applies M on the
        middle axis.  ``corrupt`` as in ``undone``.
        """
        dim = self.dim
        per_map = np.swapaxes(self.words.phase[self.order], -1, -2) @ self.undone(psi, corrupt)[self.order]
        q = np.zeros((dim * dim, dim), dtype=complex)
        q[(self.maps * dim + np.arange(dim)).ravel()] = per_map.reshape(-1, dim)
        q *= 1.0 / (dim * np.sqrt(dim))
        if self.form == 22:
            q = (self.m @ q.reshape(dim, dim, dim)).reshape(dim * dim, dim)
        self.psi, self.q = psi, q

    def difference(self) -> np.ndarray:
        """``E = L - q``, a D^2 x D matrix, for the psi of ``send``: the whole teleportation equation.

        Label b's left side ``psi x resource(b)`` is ``L`` times the same
        operator as its right side ``q U_b [M^T]``: ``U_b`` in form 22, with
        ``L = psi x vec(M) / sqrt(D)``, and ``U_b M^T`` in form 11, with
        ``L = psi x vec(1) / sqrt(D)``.  So label b's difference of the two
        D^3 sides is ``E`` times that operator.
        """
        dim = self.dim
        left = bell_vector(self.m if self.form == 22 else identity(dim))
        diff = (self.psi[:, None] * left).reshape(dim * dim, dim)
        diff -= self.q
        return diff

    def branches(self, prepared: np.ndarray) -> np.ndarray:
        """Every measurement branch ``(<meas_a| x 1) prepared``, for ``prepared`` as a D^2 x D matrix, as K rows.

        ``<meas_a|`` holds ``conj(phase[a, j]) / sqrt(D)`` at ``(perm[a, j],
        j)`` (form 11; form 22 first applies ``M^dag`` on the middle axis of
        ``prepared``), so the branches of one row map are one GEMM of its
        conjugated phases with the rows of ``prepared`` at its positions,
        batched over the maps.
        """
        dim = self.dim
        if self.form == 22:
            prepared = (self.m.conj().T @ prepared.reshape(dim, dim, dim)).reshape(dim * dim, dim)
        gathered = prepared[self.maps * dim + np.arange(dim)]
        out = np.empty((len(self.labels), dim), dtype=complex)
        out[self.order] = (self.words.phase[self.order].conj() @ gathered) * (1.0 / np.sqrt(dim))
        return out


def transfer_identity_check(d: int, seed: int = 0, tol: float = DEFAULT_TOL) -> Report:
    """<Omega|_CA (|psi>_C |Omega>_AB) = (1/d)|psi>_B, checked on random psi.

    The partial contraction is ``<Omega| @ (psi x Omega).reshape(d^2, d)``.
    """
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
    """Run one variant over all resource labels with a sampled M (``basic2``: M = 1).

    Label b's difference of the two sides is ``E U_b`` (form 22) or ``E
    U_b M^T`` (form 11), ``E`` from ``_Setting.difference``.  In form 22
    every label's residual is ``max|E|``; form 11 takes the products in
    blocks of labels.  A failing label names its ``entry`` of the D^3 sides.
    """
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
    setting.send(psi)
    diff = setting.difference()
    if setting.form == 22:
        # E U_b gathers E's columns times phases of modulus 1: every label's residual is max|E|,
        # and only a failing label reads |E| through its perm_b for its witness
        mags = np.abs(diff)
        worst = fold(mags)
        for lab, perm in zip(setting.labels, setting.words.perm):
            rep.add(f"label={lab}", worst if worst < tol else mags[:, perm], index="entry")
        return rep
    for block in blocks(len(setting.labels), 16 * dim**3):
        for lab, mags in zip(setting.labels[block], np.abs(diff @ setting._operators(block))):
            rep.add(f"label={lab}", mags, index="entry")
    return rep


# ---------------------------------------------------------------------------
# projective equations


def projective_eq_check(
    variant: str,
    d: int | None = None,
    n: int | None = None,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Projector-applied teleportation equations, every outcome swept.

    ``(|m><m| x 1)(psi x resource) = m x (<m| @ prepared.reshape(D^2, D))``,
    and ``lhs - rhs = meas_a x (branch_a - receiver_a / D)``, so each
    outcome's residual is ``max|meas_a| * max|branch_a - receiver_a / D|``
    from ``(K, D)`` arrays (``_Setting.branches``, ``receivers`` and
    ``meas_max``); no D^3 x D^3 projector and no K x D^2 stack of
    measurement vectors is formed.  A failing outcome names the entry
    ``x D + k`` of its product as `` witness=entry <i>``: x the first
    largest entry of ``|meas_a|``, k the first NaN, else first largest,
    entry of ``|branch_a - receiver_a / D|``.  The resource, measurement
    and receiver states are the setting's at b = 0: ``projective_qudit``
    is form 22 (receiver U_a^dag psi, correction U_a),
    ``projective_qudit11`` form 11 (receiver M U_a^dag psi, correction
    U_a M^dag), ``projective_nqubit`` form 22 over n qubits with M = 1.
    Only the qudit variants draw M (before psi).
    """
    rng = np.random.default_rng(seed)
    setting = _Setting("projective-eq", variant, d, n)
    dim = setting.dim
    setting.use(identity(dim) if setting.variant == "projective_nqubit" else haar_unitary(dim, rng))
    rep = Report("projective-eq", {"variant": setting.variant, **setting.size}, tolerance=tol, seed=seed)
    psi = random_state(dim, rng)
    prepared = np.kron(psi, setting.resource([0])[0]).reshape(dim * dim, dim)
    diffs = np.abs(setting.branches(prepared) - setting.receivers(psi) / dim)
    for a, (label, res) in enumerate(zip(setting.labels, (setting.meas_max() * diffs.max(axis=1)).tolist())):
        witness = ""
        if not res < tol:
            # argmax returns the first NaN entry if there is one, else the first worst one
            witness = f" witness=entry {np.argmax(np.abs(setting.meas([a])[0])) * dim + np.argmax(diffs[a])}"
        rep.add(f"outcome={label}{witness}", res)
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


def protocol_outcomes(psi: np.ndarray, variant: str, m: np.ndarray | None = None):
    """Deterministic outcome table: (label, probability, fidelity, output, correction).

    Measures in the form-11 setting at b = 0: outcome ``a`` is corrected by
    ``U_a M^dag`` for qudits and by ``T(a)`` for n qubits (``M = 1``).  Every
    outcome is computed at once, from stacked products over the K labels.
    """
    psi = np.asarray(psi, dtype=complex)
    dim = psi.shape[0]
    setting = _Setting("protocol", variant, d=dim, n=dim.bit_length() - 1)
    qubits = "n" in setting.size
    setting.use(identity(dim) if m is None or qubits else m)
    branches = setting.branches(np.kron(psi, setting.resource([0])[0]).reshape(dim * dim, dim))
    norms = np.sqrt(_row_dots(branches.real, branches.real) + _row_dots(branches.imag, branches.imag))
    probs = norms**2
    if abs(probs.sum() - 1.0) > 1e-12:
        raise AssertionError(f"outcome probabilities sum to {probs.sum()}, not 1")
    # each post-measurement state corrected by U_a M^dag: M^dag on every state in one
    # GEMM, rows (M^dag post_a)^T = post_a^T conj(M), then U_a by one scatter of
    # phase times row (``words.apply`` multiplies row times phase: complex products
    # need not commute bit for bit, and the fidelities have always been taken so)
    turned = (branches / norms[:, None]) @ setting.m.conj()
    corrected = np.empty_like(turned)
    np.put_along_axis(corrected, setting.words.perm, setting.words.phase * turned, axis=1)
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
    search per outcome instead of one per draw.  The draws are taken, sorted
    and counted in blocks (``linalg.walk``): consecutive ``rng.random``
    calls give the numbers of one call, so the counts are those of one draw
    of ``samples``.
    """
    p = np.asarray(probs, dtype=float) / np.sum(probs)
    if not np.all(p >= 0):
        raise ValueError("probabilities must be non-negative and not NaN")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    below = np.zeros(len(cdf), dtype=np.intp)
    for _, (part,) in walk(samples, ((), float)):
        rng.random(out=part)
        part.sort()
        below += np.searchsorted(part, cdf)
    return np.diff(below, prepend=0)


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
    the interleaved pair-product resource.  A failing ``all-basis-inputs``
    case names its ``input``, counted from 0 (``Report``).
    """
    rng = np.random.default_rng(seed)
    setting = _Setting("teleport-eq", variant, d, n)
    dim = setting.dim
    rep = Report("linearity-reduction", {"variant": variant, **setting.size}, tolerance=tol, seed=seed)
    setting.use(identity(dim))
    basis = [basis_state(dim, i) for i in range(dim)]

    def label_residual(psi, corrupt=False):
        # M = 1, so in both forms label b's difference E U_b gathers E's columns times phases of
        # modulus 1, and every label's residual is max|E|
        setting.send(psi, corrupt)
        return fold(np.abs(setting.difference()))

    rep.add("all-basis-inputs", np.array([label_residual(psi) for psi in basis]), index="input")
    rep.add("random-superposition", label_residual(random_state(dim, rng)))
    # Control: drop the dagger on the outcome correction; some basis input must fail.
    rep.add_expect_fail(
        "corrupted-correction-fails", fold(label_residual(psi, corrupt=True) for psi in basis), 1e-6
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
