"""Typed errors shared across the engines.

The CLI maps these onto its exit-code contract: obstruction errors
(the mathematics says no) exit 3, verification failures exit 2, and
malformed input or a refused request exits 4. `ConstructionFailed` is
the verification failure an engine raises when its own re-check of an
object it built fails; it carries the witness of that check.
"""

from typing import Optional


class TessellaError(Exception):
    """Base class for all package errors."""


class InvalidInput(TessellaError):
    """Malformed instance document or argument (CLI exit 4)."""


class NotFree(TessellaError):
    """The action has an orbit shorter than the group, so no fundamental
    domain indexed by group elements can exist."""


class InvalidDomain(TessellaError):
    """A set that was required to be a verified fundamental domain is not."""


class ConstructionFailed(TessellaError):
    """An engine's re-verification rejected an object the engine itself
    built (CLI exit 2). `witness` names what failed, e.g. an atom and its
    cover count, or a point and its multiplicity."""

    def __init__(self, message: str, witness: Optional[dict] = None):
        super().__init__(message)
        self.witness = witness or {}


class ConditionFails(TessellaError):
    """The measure condition on joint-invariant sets fails, so the requested
    construction provably does not exist (CLI exit 3)."""


class InvalidAlpha(TessellaError):
    """The twisting map of a semidirect product is not a homomorphism into
    the automorphism group."""


class TooLarge(TessellaError):
    """Request exceeds a size budget checked before the work starts: the
    atom bound of the brute-force oracle, the cell budget of the lattice
    constructions, the translate tests of a Heisenberg Monte Carlo run,
    or the pieces and cover cells of a box reduction (CLI exit 4)."""


class Incommensurable(TessellaError):
    """Lattice pair without a common finite-index sublattice (for rational
    full-rank lattices this can only happen on dimension mismatch)."""


class NotSublattice(TessellaError):
    """index() called on a pair where the first lattice is not contained in
    the second."""


class CovolumeMismatch(TessellaError):
    """Common fundamental domain requested for lattices of different
    covolume."""


class DimensionTooLarge(TessellaError):
    """Operation only implemented up to dimension 3."""


class NotMeasurePreserving(TessellaError):
    """Planar matrix with determinant different from 1 cannot define a
    measure-preserving center-fixing automorphism."""


class WindowTooSmall(TessellaError):
    """Monte Carlo window does not contain the candidate's bounding box."""
