"""Exception types shared across the package."""


class HarmonicFlowError(Exception):
    """Base class for all package errors."""


# -- target geometry -------------------------------------------------------

class OutsideTubularNeighborhood(HarmonicFlowError):
    """Point is too far from the target for the projection to be defined."""


class NotOnTarget(HarmonicFlowError):
    """Point or map values lie off the target manifold beyond tolerance."""


class NonTangentInput(HarmonicFlowError):
    """Operation requires a tangent vector at the given base point."""


# -- meshes ----------------------------------------------------------------

class InvalidSpec(HarmonicFlowError):
    """Mesh specification out of the supported range."""


class ShapeMismatch(HarmonicFlowError):
    """Field shape incompatible with the mesh or with another field."""


class UnsupportedOrder(HarmonicFlowError):
    """Sobolev order k outside the implemented range."""


class InadmissibleExponents(HarmonicFlowError):
    """Exponents (d, k, p) not admissible for the requested norm, probe or inequality."""


# -- fields and energy -----------------------------------------------------

class EigensolveFailure(HarmonicFlowError):
    """Eigenvalue iteration failed to converge."""


# -- charts ----------------------------------------------------------------

class ChartRadiusExceeded(HarmonicFlowError):
    """Requested displacement leaves the safe chart radius."""


# -- lojasiewicz -----------------------------------------------------------

class InsufficientDecades(HarmonicFlowError):
    """Fit window does not span enough decades of energy gap."""


class DegenerateWindow(HarmonicFlowError):
    """Fit window is empty or inverted."""


class NotCritical(HarmonicFlowError):
    """Reference map is not a critical point to tolerance."""


class InsufficientTail(HarmonicFlowError):
    """Trace tail below the gradient cut is too short to classify."""


# -- persistence and configuration ------------------------------------------

class EmptyTrace(HarmonicFlowError):
    """Trace export requires at least one sample."""


class CheckpointVersionError(HarmonicFlowError):
    """Checkpoint file format version is not supported."""


class CheckpointParseError(HarmonicFlowError):
    """Checkpoint file is truncated or malformed."""


class SpecMismatch(HarmonicFlowError):
    """Checkpoint mesh/target echo disagrees with the scenario."""


class ConfigError(HarmonicFlowError):
    """Scenario configuration failed to parse or validate."""
