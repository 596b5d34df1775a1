//! # textjoin-rel — a minimal relational engine
//!
//! The relational substrate of the textjoin reproduction: the role OpenODB
//! plays in the paper *"Join Queries with External Text Sources"*
//! (Chaudhuri, Dayal, Yan; SIGMOD 1995). It provides exactly the relational
//! capability the paper's join methods exercise:
//!
//! * typed in-memory [`table::Table`]s over [`schema::RelSchema`]s;
//! * selection / projection / distinct / sort / group operators ([`ops`]);
//! * nested-loop and hash joins ([`join`]);
//! * SQL string matching ([`strmatch`]) with semantics *consistent* with the
//!   text system's indexer — the prerequisite for the RTP join method;
//! * a [`catalog::Catalog`] of named tables. It keeps no statistics: the
//!   cost model counts the `N` and `N_i` it needs on the tables it reads
//!   ([`ops::distinct_count`], [`ops::distinct_count_multi`]).
//!
//! ```
//! use textjoin_rel::{schema::RelSchema, table::Table, value::ValueType,
//!                    expr::Pred, ops::filter, tuple};
//!
//! let schema = RelSchema::from_columns(vec![
//!     ("name", ValueType::Str), ("year", ValueType::Int)]);
//! let mut student = Table::new("student", schema);
//! student.push(tuple!["Gravano", 4i64]);
//! student.push(tuple!["Kao", 2i64]);
//!
//! let seniors = filter(&student, &Pred::gt(student.col("year"), 3i64));
//! assert_eq!(seniors.len(), 1);
//! ```

pub mod catalog;
pub mod expr;
pub mod join;
pub mod ops;
pub mod schema;
pub mod strmatch;
pub mod table;
pub mod tuple;
pub mod value;

pub use catalog::Catalog;
pub use expr::{CmpOp, Pred};
pub use schema::{ColId, RelSchema};
pub use table::Table;
pub use tuple::Tuple;
pub use value::{Value, ValueType};
