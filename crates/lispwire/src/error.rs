//! Error type shared by all wire-format decoders.

use core::fmt;

/// Errors that can occur while decoding a wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is too short to contain the fixed header.
    Truncated,
    /// A length field points past the end of the buffer.
    BadLength,
    /// A version field holds an unsupported value.
    BadVersion,
    /// A checksum did not verify.
    BadChecksum,
    /// A field holds a value that is not valid for this protocol.
    Malformed,
    /// An unknown / unsupported message type code.
    UnknownType,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WireError::Truncated => "buffer truncated",
            WireError::BadLength => "length field inconsistent",
            WireError::BadVersion => "unsupported version",
            WireError::BadChecksum => "checksum mismatch",
            WireError::Malformed => "malformed field",
            WireError::UnknownType => "unknown message type",
        };
        f.write_str(s)
    }
}

impl std::error::Error for WireError {}

/// Result alias for wire operations.
pub type WireResult<T> = Result<T, WireError>;
