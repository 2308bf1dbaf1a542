"""Exception hierarchy.

Three broad families map onto the CLI exit codes: configuration errors (2),
data errors (3), and model errors (4).
"""


class BlamescopeError(Exception):
    exit_code = 1


class ConfigError(BlamescopeError):
    exit_code = 2


class DataError(BlamescopeError):
    exit_code = 3


class ModelError(BlamescopeError):
    exit_code = 4


# -- model errors -----------------------------------------------------------

class CyclicGraph(ModelError):
    pass


class DanglingParent(ModelError):
    pass


class DuplicateVariable(ModelError):
    pass


class NonNormalizedDistribution(ModelError):
    pass


class PartialMechanism(ModelError):
    pass


class UnknownVariable(ModelError):
    pass


class ValueOutOfDomain(ModelError):
    pass


class IncompleteExogenousAssignment(ModelError):
    pass


class StateSpaceTooLarge(ModelError):
    pass


class ZeroProbabilityObservation(ModelError):
    pass


class DegenerateMarginals(ModelError):
    pass


# -- data errors ------------------------------------------------------------

class DuplicateCaseId(DataError):
    pass


class EmptyCaseList(DataError):
    pass


class MalformedRow(DataError):
    pass


class SchemaViolation(DataError):
    pass


class FileNotFound(DataError, FileNotFoundError):
    pass


class UnreadableFile(DataError):
    pass


class UnwritableFile(DataError):
    pass


class NonFiniteNumber(DataError):
    pass


# -- configuration errors ---------------------------------------------------

class UnknownOutcome(ConfigError):
    pass


class UnknownAction(ConfigError):
    pass


class UnknownCostModel(ConfigError):
    pass


class SampleCountTooLarge(ConfigError):
    pass
