//! DNS message wire format (RFC 1035 subset).
//!
//! Supports everything the simulated DNS hierarchy needs: queries and
//! responses with A and NS records, iterative-referral responses
//! (NS in authority section plus glue A records in additional). Names
//! are written uncompressed, like many simple servers do, and nothing
//! else produces DNS bytes, so the decoder rejects compression pointers
//! as malformed labels.

use crate::error::{WireError, WireResult};
use crate::ipv4::Ipv4Address;
use crate::wire::{Reader, Writer};
use core::fmt;
use std::borrow::Borrow;
use std::sync::Arc;

/// Maximum length of a DNS name on the wire, in octets: every label
/// with its length byte, plus the root's zero byte (RFC 1035 §2.3.4).
/// A presentation name of `n > 0` characters takes `n + 2` octets, so
/// the longest name [`Name::parse_str`] accepts has 253 characters.
pub const MAX_NAME_LEN: usize = 255;
/// Maximum label length.
pub const MAX_LABEL_LEN: usize = 63;
/// The class of every question and record here: IN.
const CLASS_IN: u16 = 1;

/// A fully-qualified domain name, stored lower-case without the trailing dot.
///
/// A name is spelled once and then shared: the text lives in one
/// reference-counted allocation, so `clone` only bumps a count. Maps
/// keyed by `Name` can be searched with a `&str` (through
/// [`Borrow<str>`]); [`Name::ancestors`] walks a name's suffixes that
/// way without building a `Name` for each.
///
/// The `Default` name is the DNS root.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Name(Arc<str>);

impl Name {
    /// The DNS root (empty name).
    pub fn root() -> Self {
        Name::default()
    }

    /// Parse from presentation format (e.g. `"www.example.com"`).
    /// Trailing dots are stripped; the name is lower-cased.
    pub fn parse_str(s: &str) -> WireResult<Self> {
        let trimmed = s.trim_end_matches('.');
        if trimmed.is_empty() {
            return Ok(Name::root());
        }
        if trimmed.len() + 2 > MAX_NAME_LEN
            || trimmed
                .split('.')
                .any(|label| label.is_empty() || label.len() > MAX_LABEL_LEN)
        {
            return Err(WireError::Malformed);
        }
        Ok(if trimmed.bytes().any(|b| b.is_ascii_uppercase()) {
            Name(trimmed.to_ascii_lowercase().into())
        } else {
            Name(trimmed.into())
        })
    }

    /// The presentation-format string (no trailing dot; empty for root).
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        if self.0.is_empty() {
            0
        } else {
            self.0.split('.').count()
        }
    }

    /// Iterate over labels, leftmost first.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.0.split('.').filter(|l| !l.is_empty())
    }

    /// The parent name (strip the leftmost label); root's parent is root.
    pub fn parent(&self) -> Name {
        match self.0.find('.') {
            Some(i) => Name(self.0[i + 1..].into()),
            None => Name::root(),
        }
    }

    /// This name and each ancestor up to the root, most specific first:
    /// `a.b.c`, `b.c`, `c`, then `""` for the root. Borrowed from this
    /// name's text, for lookups through [`Borrow<str>`].
    pub fn ancestors(&self) -> impl Iterator<Item = &str> {
        core::iter::successors(Some(self.as_str()), |s| {
            (!s.is_empty()).then(|| s.find('.').map_or("", |i| &s[i + 1..]))
        })
    }

    /// True if `self` is equal to or a subdomain of `other`.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        if other.is_root() {
            return true;
        }
        self.0 == other.0
            || (self.0.len() > other.0.len()
                && self.0.ends_with(other.as_str())
                && self.0.as_bytes()[self.0.len() - other.0.len() - 1] == b'.')
    }

    /// Wire length when emitted uncompressed.
    pub fn wire_len(&self) -> usize {
        if self.0.is_empty() {
            1
        } else {
            self.0.len() + 2
        }
    }

    /// Write uncompressed wire format (length-prefixed labels + zero byte).
    pub(crate) fn emit(&self, w: &mut Writer) {
        for label in self.labels() {
            w.u8(label.len() as u8).bytes(label.as_bytes());
        }
        w.u8(0);
    }

    /// Read an uncompressed name of at most [`MAX_NAME_LEN`] octets.
    pub(crate) fn parse(r: &mut Reader) -> WireResult<Name> {
        let mut text = String::new();
        // Octets read so far, the zero byte that ends the name included.
        let mut wire_len = 1;
        loop {
            let len = usize::from(r.u8()?);
            if len == 0 {
                text.make_ascii_lowercase();
                return Ok(Name(text.into()));
            }
            if len > MAX_LABEL_LEN {
                return Err(WireError::Malformed);
            }
            let label = core::str::from_utf8(r.bytes(len)?).map_err(|_| WireError::Malformed)?;
            wire_len += len + 1;
            if wire_len > MAX_NAME_LEN {
                return Err(WireError::Malformed);
            }
            if !text.is_empty() {
                text.push('.');
            }
            text.push_str(label);
        }
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            f.write_str(".")
        } else {
            f.write_str(&self.0)
        }
    }
}

/// Record / query types supported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordType {
    /// IPv4 host address.
    A,
    /// Authoritative name server.
    Ns,
    /// Anything else (carried opaque).
    Other(u16),
}

impl From<u16> for RecordType {
    fn from(v: u16) -> Self {
        match v {
            1 => RecordType::A,
            2 => RecordType::Ns,
            other => RecordType::Other(other),
        }
    }
}

impl From<RecordType> for u16 {
    fn from(v: RecordType) -> u16 {
        match v {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Other(o) => o,
        }
    }
}

/// Response codes (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Format error.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist.
    NxDomain,
    /// Other code.
    Other(u8),
}

impl From<u8> for Rcode {
    fn from(v: u8) -> Self {
        match v & 0x0f {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            o => Rcode::Other(o),
        }
    }
}

impl From<Rcode> for u8 {
    fn from(v: Rcode) -> u8 {
        match v {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::Other(o) => o & 0x0f,
        }
    }
}

/// A question entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Queried name.
    pub name: Name,
    /// Query type.
    pub qtype: RecordType,
}

/// Resource-record data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rdata {
    /// An IPv4 address.
    A(Ipv4Address),
    /// A name-server name.
    Ns(Name),
    /// Opaque bytes for unsupported types.
    Other(Vec<u8>),
}

/// A resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Owner name.
    pub name: Name,
    /// Time-to-live in seconds.
    pub ttl: u32,
    /// Record data (the type is implied by the variant).
    pub rdata: Rdata,
}

impl Record {
    /// An A record.
    pub fn a(name: Name, addr: Ipv4Address, ttl: u32) -> Self {
        Self {
            name,
            ttl,
            rdata: Rdata::A(addr),
        }
    }

    /// An NS record.
    pub fn ns(name: Name, nsdname: Name, ttl: u32) -> Self {
        Self {
            name,
            ttl,
            rdata: Rdata::Ns(nsdname),
        }
    }

    fn parse(r: &mut Reader) -> WireResult<Self> {
        let name = Name::parse(r)?;
        let (rtype, _class, ttl, rdlength) = (r.u16()?, r.u16()?, r.u32()?, r.u16()?);
        let rdata = r.bytes(usize::from(rdlength))?;
        let rdata = match RecordType::from(rtype) {
            RecordType::A => Rdata::A(Ipv4Address(
                rdata.try_into().map_err(|_| WireError::BadLength)?,
            )),
            RecordType::Ns => Rdata::Ns(Name::parse(&mut Reader::new(rdata))?),
            RecordType::Other(_) => Rdata::Other(rdata.to_vec()),
        };
        Ok(Self { name, ttl, rdata })
    }

    /// The record type implied by the rdata.
    pub fn rtype(&self) -> RecordType {
        match &self.rdata {
            Rdata::A(_) => RecordType::A,
            Rdata::Ns(_) => RecordType::Ns,
            Rdata::Other(_) => RecordType::Other(0xffff),
        }
    }
}

/// A whole DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction id.
    pub id: u16,
    /// True for responses.
    pub is_response: bool,
    /// Authoritative-answer flag.
    pub authoritative: bool,
    /// Recursion-desired flag.
    pub recursion_desired: bool,
    /// Recursion-available flag.
    pub recursion_available: bool,
    /// Response code.
    pub rcode: Rcode,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section (referral NS records).
    pub authority: Vec<Record>,
    /// Additional section (glue A records).
    pub additional: Vec<Record>,
}

impl Message {
    /// A query for an A record.
    pub fn query_a(id: u16, name: Name, recursion_desired: bool) -> Self {
        Self {
            id,
            is_response: false,
            authoritative: false,
            recursion_desired,
            recursion_available: false,
            rcode: Rcode::NoError,
            questions: vec![Question {
                name,
                qtype: RecordType::A,
            }],
            answers: Vec::new(),
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }

    /// Build a response skeleton echoing a query's id and question.
    pub fn response_to(query: &Message) -> Self {
        Self {
            id: query.id,
            is_response: true,
            authoritative: false,
            recursion_desired: query.recursion_desired,
            recursion_available: false,
            rcode: Rcode::NoError,
            questions: query.questions.clone(),
            answers: Vec::new(),
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }

    /// The first question, if any.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// The first A-record answer address, if any.
    pub fn first_answer_a(&self) -> Option<Ipv4Address> {
        self.answers.iter().find_map(|r| match r.rdata {
            Rdata::A(a) => Some(a),
            _ => None,
        })
    }

    /// Exact length of [`Message::to_bytes`] without materializing it
    /// (uncompressed names; paired with the emitter so typed packets can
    /// account bytes without byte shuffling).
    pub fn wire_len(&self) -> usize {
        let mut n = 12;
        for q in &self.questions {
            n += q.name.wire_len() + 4;
        }
        for r in self.records() {
            n += r.name.wire_len() + 10;
            n += match &r.rdata {
                Rdata::A(_) => 4,
                Rdata::Ns(ns) => ns.wire_len(),
                Rdata::Other(bytes) => bytes.len(),
            };
        }
        n
    }

    pub(crate) fn emit(&self, w: &mut Writer) {
        let flags = u16::from(self.is_response) << 15
            | u16::from(self.authoritative) << 10
            | u16::from(self.recursion_desired) << 8
            | u16::from(self.recursion_available) << 7
            | u16::from(u8::from(self.rcode));
        w.u16(self.id).u16(flags);
        for count in [
            self.questions.len(),
            self.answers.len(),
            self.authority.len(),
            self.additional.len(),
        ] {
            w.u16(count as u16);
        }
        for q in &self.questions {
            q.name.emit(w);
            w.u16(q.qtype.into()).u16(CLASS_IN);
        }
        for r in self.records() {
            r.name.emit(w);
            w.u16(r.rtype().into()).u16(CLASS_IN).u32(r.ttl);
            match &r.rdata {
                Rdata::A(a) => {
                    w.u16(4).addr(*a);
                }
                Rdata::Ns(n) => {
                    w.u16(n.wire_len() as u16);
                    n.emit(w);
                }
                Rdata::Other(bytes) => {
                    w.u16(bytes.len() as u16).bytes(bytes);
                }
            }
        }
    }

    /// Every resource record, answers then authority then additional.
    fn records(&self) -> impl Iterator<Item = &Record> {
        self.answers
            .iter()
            .chain(&self.authority)
            .chain(&self.additional)
    }

    /// Serialize to owned wire bytes (uncompressed names).
    pub fn to_bytes(&self) -> Vec<u8> {
        Writer::collect(|w| self.emit(w))
    }

    /// Parse from wire bytes.
    pub fn from_bytes(buf: &[u8]) -> WireResult<Self> {
        let mut r = Reader::new(buf);
        let (id, flags) = (r.u16()?, r.u16()?);
        let [qdcount, ancount, nscount, arcount] = [r.u16()?, r.u16()?, r.u16()?, r.u16()?];
        let questions = (0..qdcount)
            .map(|_| {
                let name = Name::parse(&mut r)?;
                let (qtype, _class) = (r.u16()?, r.u16()?);
                Ok(Question {
                    name,
                    qtype: qtype.into(),
                })
            })
            .collect::<WireResult<_>>()?;
        let mut records = |count: u16| -> WireResult<Vec<Record>> {
            (0..count).map(|_| Record::parse(&mut r)).collect()
        };
        let answers = records(ancount)?;
        let authority = records(nscount)?;
        let additional = records(arcount)?;
        Ok(Self {
            id,
            is_response: flags & 0x8000 != 0,
            authoritative: flags & 0x0400 != 0,
            recursion_desired: flags & 0x0100 != 0,
            recursion_available: flags & 0x0080 != 0,
            rcode: Rcode::from(flags as u8),
            questions,
            answers,
            authority,
            additional,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse_str(s).unwrap()
    }

    #[test]
    fn name_parse_str_normalizes() {
        assert_eq!(name("WWW.Example.COM.").as_str(), "www.example.com");
        assert_eq!(name("").as_str(), "");
        assert!(name("").is_root());
        assert_eq!(name("a.b.c").label_count(), 3);
    }

    #[test]
    fn name_rejects_bad_labels() {
        assert!(Name::parse_str(&"x".repeat(300)).is_err());
        assert!(Name::parse_str("a..b").is_err());
        assert!(Name::parse_str(&format!("{}.com", "y".repeat(64))).is_err());
    }

    /// A presentation name of `n` characters: 63-character labels, then
    /// one shorter label for the rest.
    fn long_name(n: usize) -> String {
        let mut s = String::new();
        while s.len() < n {
            if !s.is_empty() {
                s.push('.');
            }
            let take = (n - s.len()).min(MAX_LABEL_LEN);
            s.extend(std::iter::repeat_n('a', take));
        }
        s
    }

    #[test]
    fn name_length_limit_is_255_wire_octets() {
        // 253 characters take 255 octets on the wire: the longest name,
        // and it round-trips.
        let longest = name(&long_name(253));
        assert_eq!(longest.wire_len(), MAX_NAME_LEN);
        let bytes = Message::query_a(1, longest.clone(), false).to_bytes();
        let parsed = Message::from_bytes(&bytes).unwrap();
        assert_eq!(parsed.question().unwrap().name, longest);
        // One and two characters more are 256 and 257 octets: refused
        // in presentation form and on the wire alike.
        for len in [254, 255] {
            let text = long_name(len);
            assert_eq!(Name::parse_str(&text).unwrap_err(), WireError::Malformed);
            let mut wire = Vec::new();
            for label in text.split('.') {
                wire.push(label.len() as u8);
                wire.extend_from_slice(label.as_bytes());
            }
            wire.push(0);
            assert_eq!(wire.len(), len + 2);
            assert_eq!(
                Name::parse(&mut Reader::new(&wire)).unwrap_err(),
                WireError::Malformed
            );
        }
    }

    #[test]
    fn name_parent_and_subdomain() {
        let n = name("www.example.com");
        assert_eq!(n.parent(), name("example.com"));
        assert_eq!(name("com").parent(), Name::root());
        assert!(n.is_subdomain_of(&name("example.com")));
        assert!(n.is_subdomain_of(&name("com")));
        assert!(n.is_subdomain_of(&Name::root()));
        assert!(!n.is_subdomain_of(&name("ample.com")));
        assert!(!name("example.com").is_subdomain_of(&n));
        assert_eq!(
            n.ancestors().collect::<Vec<_>>(),
            ["www.example.com", "example.com", "com", ""]
        );
        assert_eq!(Name::root().ancestors().collect::<Vec<_>>(), [""]);
    }

    #[test]
    fn name_wire_roundtrip() {
        for s in [
            "",
            "com",
            "example.com",
            "a.very.deep.sub.domain.example.org",
        ] {
            let n = name(s);
            let out = Writer::collect(|w| n.emit(w));
            assert_eq!(out.len(), n.wire_len());
            let mut r = Reader::new(&out);
            assert_eq!(Name::parse(&mut r).unwrap(), n);
            assert!(r.rest().is_empty());
        }
    }

    #[test]
    fn name_pointer_is_a_malformed_label() {
        // Nothing here compresses names, so a compression pointer is
        // just an over-long label length.
        let msg = [3, b'w', b'w', b'w', 0xc0, 0x00];
        assert_eq!(
            Name::parse(&mut Reader::new(&msg)).unwrap_err(),
            WireError::Malformed
        );
    }

    #[test]
    fn query_roundtrip() {
        let q = Message::query_a(0x1234, name("host.d.example"), true);
        let bytes = q.to_bytes();
        assert_eq!(bytes.len(), q.wire_len());
        let parsed = Message::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, q);
        assert!(!parsed.is_response);
        assert!(parsed.recursion_desired);
    }

    #[test]
    fn answer_roundtrip() {
        let q = Message::query_a(7, name("host.d.example"), false);
        let mut r = Message::response_to(&q);
        r.authoritative = true;
        r.answers.push(Record::a(
            name("host.d.example"),
            Ipv4Address::new(101, 0, 0, 5),
            300,
        ));
        let bytes = r.to_bytes();
        assert_eq!(bytes.len(), r.wire_len());
        let parsed = Message::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(
            parsed.first_answer_a(),
            Some(Ipv4Address::new(101, 0, 0, 5))
        );
        assert!(parsed.authoritative);
    }

    #[test]
    fn referral_roundtrip() {
        let q = Message::query_a(9, name("host.d.example"), false);
        let mut r = Message::response_to(&q);
        r.authority
            .push(Record::ns(name("example"), name("ns1.example"), 86400));
        r.additional.push(Record::a(
            name("ns1.example"),
            Ipv4Address::new(12, 0, 0, 53),
            86400,
        ));
        let bytes = r.to_bytes();
        let parsed = Message::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, r);
        assert!(parsed.answers.is_empty());
        assert_eq!(parsed.authority.len(), 1);
        assert_eq!(parsed.additional.len(), 1);
    }

    #[test]
    fn nxdomain_rcode_roundtrip() {
        let q = Message::query_a(9, name("nope.example"), false);
        let mut r = Message::response_to(&q);
        r.rcode = Rcode::NxDomain;
        let parsed = Message::from_bytes(&r.to_bytes()).unwrap();
        assert_eq!(parsed.rcode, Rcode::NxDomain);
    }

    #[test]
    fn truncated_header_rejected() {
        assert_eq!(
            Message::from_bytes(&[0u8; 11]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn truncated_question_rejected() {
        let q = Message::query_a(7, name("host.example"), false);
        let bytes = q.to_bytes();
        assert!(Message::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }
}
