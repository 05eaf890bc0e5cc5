//! Library half of the `mdlump-cli` command-line tool: the model-file
//! parser, the command implementations and the request [`executor`]
//! that `mdlump-cli solve` and `mdl-serve` share, kept out of `main.rs`
//! so they are unit-testable.
//!
//! # Model file format
//!
//! Line-oriented; `#` starts a comment; blank lines are ignored.
//!
//! ```text
//! # A power-managed worker pool.
//! component ctrl 2 initial 0
//! component workers 4 initial 0
//!
//! event toggle rate 0.2
//!   factor ctrl 0 1 1.0
//!   factor ctrl 1 0 1.0
//!
//! event work_high rate 1.5
//!   factor ctrl 0 0 1.0          # gate: only in mode 0
//!   factor workers 0 1 1.0
//!   factor workers 1 2 1.0
//!   factor workers 2 3 1.0
//!
//! event finish rate 1.0
//!   factor workers 1 0 1.0
//!   factor workers 2 1 1.0
//!   factor workers 3 2 1.0
//!
//! reward sum
//!   value workers 1 1.0
//!   value workers 2 2.0
//!   value workers 3 3.0
//! ```
//!
//! * `component <name> <size> [initial <k>]` — one per MD level, in order;
//! * `event <name> rate <λ>` followed by `factor <component> <from> <to>
//!   <value>` lines (components not mentioned are untouched);
//! * `reward sum|product` followed by `value <component> <state> <v>` and
//!   optional `default <component> <v>` lines (unset values are 0 for
//!   `sum`, 1 for `product`);
//! * an optional `initial` section (bare `initial` line, then
//!   `ivalue <component> <state> <v>` / `idefault <component> <v>` lines)
//!   giving a product-form initial distribution — required for exact
//!   lumping, whose classes must carry uniform initial probability; with
//!   no section, the point mass on the components' `initial` states is
//!   used. The distribution must sum to 1 over reachable states.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod commands;
pub mod error;
pub mod executor;
pub mod flags;
pub mod parser;

pub use parser::{parse_model, ParseError, ParsedModel};
