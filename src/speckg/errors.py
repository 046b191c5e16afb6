"""Exception hierarchy shared across the package."""


class SpecKGError(Exception):
    """Base class for all package errors."""


class InvalidInput(SpecKGError):
    """Caller supplied input that violates an operation precondition."""


class ConfigError(SpecKGError):
    """Configuration is missing, malformed, or self-contradictory."""


# --- gateway ---------------------------------------------------------------

class TransientError(SpecKGError):
    """A provider call failed in a way a retry can change: a connection error,
    a timeout, HTTP 429 or a 5xx status. The gateway retries only this."""


class ProviderRefused(SpecKGError):
    """The provider answered a request with an error status no retry can
    change, such as a bad key, an unknown model or a request too long."""


class RetryExhausted(SpecKGError):
    """Provider transport kept failing after the bounded retry budget."""


class MalformedReply(SpecKGError):
    """Structured reply failed schema validation even after one repair round,
    or a provider's response body lacks the fields its wire shape needs."""


class FixtureMiss(SpecKGError):
    """Replay mode was asked for a digest the fixture store does not contain."""


# --- ingest ----------------------------------------------------------------

class SkippedSentence(SpecKGError):
    """Sentence judged non-informative; recorded by the corpus builder, not fatal."""


# --- knowledge graph -------------------------------------------------------

class CorpusInconsistent(SpecKGError):
    """A triple or record references an id that does not exist in the corpus."""


class NormalizationCycle(SpecKGError):
    """Alias edges form a cycle, so no canonical orientation exists."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"alias cycle: {' -> '.join(self.cycle)}")


class IncompatibleFormat(SpecKGError):
    """Persisted store was written by a newer, unsupported format version."""


class CorruptStore(SpecKGError):
    """Persisted store is truncated or fails its checksum."""


# --- retrieval / reasoning -------------------------------------------------

class EmptyGraph(SpecKGError):
    """Operation needs a non-empty graph or embedding index."""


class SynthesisFailed(SpecKGError):
    """Final answer generation failed."""
