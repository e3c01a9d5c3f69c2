"""Exception hierarchy for the logstair package."""


class LogstairError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyPath(LogstairError):
    pass


class SegmentThroughOrigin(LogstairError):
    """A polyline segment passes through (or touches) the origin."""

    def __init__(self, segment_index: int):
        self.segment_index = segment_index
        super().__init__(f"segment {segment_index} passes through the origin")


class ZeroCenter(LogstairError):
    pass


class OutsideDisc(LogstairError):
    pass


class CompositionOutOfRange(LogstairError):
    pass


class TooFewCoefficients(LogstairError):
    pass


class BadTruncation(LogstairError):
    pass


class DegenerateBoundary(LogstairError):
    pass


class OutsideDomain(LogstairError):
    pass


class ModelUnresolved(LogstairError):
    """No ring of the local model's radius ladder passed its self-check: the
    disc map does not resolve the neighbourhood of the point."""


class NoRefresh(LogstairError):
    """A continuation step needs a refresh hook and none was given."""


class CenterMismatch(LogstairError):
    pass


class WrongBasePoint(LogstairError):
    pass


class NotOnSlit(LogstairError):
    pass


class RoutingFailure(LogstairError):
    pass
