//! Waiver fixture: an allow comment with a reason is only a comment,
//! so the R1 on line 3 is still reported.
use std::collections::HashMap; // detlint: allow(R1) -- a reason waives nothing
