//! `simstats` — the plain-text table renderer every experiment report
//! prints through.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod table;

pub use table::Table;
