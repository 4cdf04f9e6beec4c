"""Exception types shared across the protocol modules."""


class ParameterError(ValueError):
    """A precondition on an operation's parameters was violated."""


class ProofRefused(Exception):
    """The prover oracle refuses to prove a non-accepting statement."""


class FormatError(Exception):
    """A serialized record failed to parse."""
