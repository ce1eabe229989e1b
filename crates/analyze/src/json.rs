//! The workspace's one JSON module, on `std` alone: [`JsonWriter`]
//! for the documents XPro emits (run reports, findings baselines) and
//! [`JsonReader`] for the ones it reads back (findings baselines,
//! `--tenants` tables).
//!
//! **Writer.** Appends into one byte buffer sized up front. Keys and
//! punctuation are constant prefixes the caller passes with each field,
//! so a document's layout is whatever its prefixes say; the writer has no
//! layout mode. Integers go two digits at a time through a digit-pair
//! table. Floats are `f64`'s shortest round-trip `Display` form (`null`
//! when not finite), memoized in a direct-mapped table keyed by the full
//! bit pattern (Fibonacci hashing, one slot per expected float field
//! rounded up to a power of two, 16 to 4 096 slots of 32 bytes; texts over
//! 23 bytes are written uncached). Calling `write!` per field cost more
//! than the bytes: 550 000 float `Display` calls took 54–66 ms of a
//! 50 000-node run report, whose per-node floats are functions of a few
//! small counters and so hold only tens of distinct values per field. A
//! cached text is `Display`'s own output for those bits, so memoized bytes
//! equal unmemoized ones. Strings are RFC 8259 literals: `"` and `\`
//! escaped, `\n`, `\r`, `\t` by name, other control characters as
//! `\u00XX`, everything else raw UTF-8.
//!
//! **Reader.** A strict cursor over a `&str` that the caller drives in the
//! order its format expects; no recursion, no value tree. Strings undo
//! every escape the writer emits plus `\/`, `\b`, `\f` and surrogate
//! pairs. Numbers follow the JSON grammar (no `NaN`, `Infinity`, `+1` or
//! `01`) and are parsed into the caller's type. Flat
//! objects refuse unknown, repeated and missing keys. Every error is a
//! [`JsonError`] carrying its byte offset.
//!
//! ```
//! use xpro_analyze::json::{JsonReader, JsonWriter};
//!
//! let mut w = JsonWriter::new(64, 1);
//! w.string("[{\"name\":", "tab\there");
//! w.uint(",\"nodes\":", 3);
//! w.raw("}]");
//! let text = w.finish();
//! assert_eq!(text, r#"[{"name":"tab\there","nodes":3}]"#);
//!
//! let mut r = JsonReader::new(&text);
//! let (mut name, mut nodes) = (String::new(), 0u32);
//! r.array(|r| {
//!     r.object(&["name", "nodes"], |r, key| {
//!         match key {
//!             "name" => name = r.string()?,
//!             "nodes" => nodes = r.parse(key)?,
//!             _ => return Ok(false),
//!         }
//!         Ok(true)
//!     })
//! })?;
//! r.end()?;
//! assert_eq!((name.as_str(), nodes), ("tab\there", 3));
//! # Ok::<(), xpro_analyze::json::JsonError>(())
//! ```

mod read;
mod write;

pub use read::{JsonError, JsonReader};
pub use write::JsonWriter;
