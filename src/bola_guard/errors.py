"""Exception hierarchy shared across the toolkit."""


class BolaGuardError(Exception):
    """Base class for every error raised by this package."""


class DocumentSyntaxError(BolaGuardError, ValueError):
    """Input text is not UTF-8, not well-formed YAML/JSON, or nested too deep."""


class StructureError(BolaGuardError):
    """Document is parseable but structurally unusable (wrong version, missing sections)."""


class DanglingRefError(BolaGuardError):
    """A $ref does not address any node in the document."""

    def __init__(self, ref: str, message: str | None = None):
        self.ref = ref
        super().__init__(message or f"unresolvable reference: {ref!r}")


class CyclicRefError(BolaGuardError):
    """Following a $ref chain revisited a node."""

    def __init__(self, ref: str):
        self.ref = ref
        super().__init__(f"cyclic reference chain at: {ref!r}")


class TokenError(BolaGuardError):
    """Base class for token verification failures."""


class TokenInvalid(TokenError):
    """Malformed token or signature mismatch."""


class TokenExpired(TokenError):
    """Token signature is fine but the expiry timestamp has passed."""


class RuleSetError(BolaGuardError):
    """Group-rule file or rule combination violates the rule-set contract."""


class DuplicateObjectError(BolaGuardError):
    """An ACL entry already exists for this (path, object id)."""


class NoSuchObjectError(BolaGuardError):
    """No ACL entry exists for this (path, object id)."""


class NotOwnerError(BolaGuardError):
    """Only the owner of an object may change its access lists."""


class StorageError(BolaGuardError):
    """Underlying journal I/O failed."""


class CorruptJournalError(StorageError):
    """Journal has damage before its final record and cannot be trusted."""


class ValidationFailedError(BolaGuardError):
    """Generation refused because the document has error-severity findings."""

    def __init__(self, findings):
        self.findings = list(findings)
        codes = ", ".join(f.code for f in self.findings)
        super().__init__(f"document has error findings: {codes}")


class NoStubFoundError(BolaGuardError):
    """Directory contains neither a manifest nor handler sources."""


class MarkerSyntaxError(BolaGuardError):
    """A privilege-provider marker line does not match the marker grammar."""

    def __init__(self, file: str, line_no: int, line: str):
        self.file = file
        self.line_no = line_no
        self.line = line
        super().__init__(f"{file}:{line_no}: malformed privilege marker: {line.strip()!r}")


class StubInconsistentError(BolaGuardError):
    """Manifest and scanned handler markers disagree about a route's authorization."""
