"""Independent routes to quantities the package computes one way.

Each function rebuilds a value by another formula, so that tests can check
the package's route against it: the product pairing of 4-vectors, the
Kaehler angle cosines from the frame and the two product complex
structures, sigma_perp from the matrix commutator of the shape operators,
and the special-point labels of a pair (phi, theta).
"""

import numpy as np


def product_inner(rhoM2: np.ndarray, rhoN2: np.ndarray,
                  X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Product metric pairing of 4-vectors."""
    return (rhoM2 * (X[..., 0] * Y[..., 0] + X[..., 1] * Y[..., 1])
            + rhoN2 * (X[..., 2] * Y[..., 2] + X[..., 3] * Y[..., 3]))


def _rot(v2: np.ndarray) -> np.ndarray:
    """90-degree rotation (the complex structure of a conformal factor)."""
    return np.stack([-v2[..., 1], v2[..., 0]], axis=-1)


def kahler_angle_crosscheck(gg) -> tuple[np.ndarray, np.ndarray]:
    """(phi, theta) recomputed from the frame of a GraphGrid and the two
    product structures.

    J1 rotates the source components and counter-rotates the target ones;
    J2 rotates both. Pairing J e1 with e2 under the product metric must
    reproduce u1 -/+ u2.
    """
    frame = gg.frame_rows(slice(None))
    e1, e2 = frame[..., 0, :], frame[..., 1, :]
    rotM = _rot(e1[..., 0:2])
    rotN = _rot(e1[..., 2:4])
    j1e1 = np.concatenate([rotM, -rotN], axis=-1)
    j2e1 = np.concatenate([rotM, rotN], axis=-1)
    phi = product_inner(gg.rhoM2, gg.rhoN2, j1e1, e2)
    theta = product_inner(gg.rhoM2, gg.rhoN2, j2e1, e2)
    return phi, theta


def sigma_perp_commutator(A: np.ndarray) -> np.ndarray:
    """sigma_perp via the explicit matrix commutator pairing <[A3, A4] e1, e2>.

    Independent of the four-term formula of `graph_grid`; the pairing reads
    off the (2, 1) entry of A3 A4 - A4 A3 in the orthonormal frame.
    """
    A3 = A[..., 0, :, :]
    A4 = A[..., 1, :, :]
    comm = A3 @ A4 - A4 @ A3
    return comm[..., 1, 0]


def classification_masks(phi: np.ndarray, theta: np.ndarray,
                         tol: float = 1e-9) -> dict[str, np.ndarray]:
    """Special-point label masks over a grid of the two Kaehler angle cosines.

    phi is the cosine attached to the difference structure J1, theta to the
    sum structure J2. A point can carry several labels (the identity map is
    Lagrangian for J1 and complex for J2 at once); "generic" marks the
    points that carry none.
    """
    phi = np.asarray(phi, float)
    theta = np.asarray(theta, float)
    masks = {
        "complex": (np.abs(phi - 1.0) <= tol) | (np.abs(theta - 1.0) <= tol),
        "anti_complex": (phi <= -1.0 + tol) | (theta <= -1.0 + tol),
        "lagrangian_1": np.abs(phi) <= tol,
        "lagrangian_2": np.abs(theta) <= tol,
    }
    masks["generic"] = ~(masks["complex"] | masks["anti_complex"]
                         | masks["lagrangian_1"] | masks["lagrangian_2"])
    return masks
