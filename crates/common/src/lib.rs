//! # tsp-common — shared vocabulary of the transactional stream processor
//!
//! This crate defines the types every other crate in the workspace speaks:
//!
//! * logical [`Timestamp`]s, [`TxnId`]s and the identifiers of states
//!   ([`StateId`]) and topology groups ([`GroupId`]),
//! * stream elements and the *punctuations* that carry data-centric
//!   transaction boundaries (`BOT` / `COMMIT` / `ROLLBACK`, see §3 of the
//!   paper and Tucker et al., "Exploiting Punctuation Semantics in Continuous
//!   Data Streams"),
//! * the error hierarchy shared by the storage, transaction and stream
//!   layers.
//!
//! The crate is dependency-free so that it can be used from every layer; all
//! types are plain `Copy`/`Clone` data.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod fxhash;
pub mod histogram;
pub mod ids;
pub mod pad;
pub mod punctuation;
pub mod recycle;
pub mod time;
pub mod tuple;

pub use error::{ErrorClass, Result, TspError};
pub use fxhash::{fx_hash, fx_shard, FxHashMap, FxHashSet};
pub use histogram::Histogram;
pub use ids::{GroupId, OperatorId, StateId, TxnId};
pub use pad::CachePadded;
pub use punctuation::{Punctuation, PunctuationKind};
pub use time::{Timestamp, TxTimestamp, INFINITY_TS, NO_TS};
pub use tuple::{StreamElement, Tuple};

/// Frequently used items, re-exported for `use tsp_common::prelude::*`.
pub mod prelude {
    pub use crate::error::{ErrorClass, Result, TspError};
    pub use crate::histogram::Histogram;
    pub use crate::ids::{GroupId, OperatorId, StateId, TxnId};
    pub use crate::punctuation::{Punctuation, PunctuationKind};
    pub use crate::time::{Timestamp, INFINITY_TS, NO_TS};
    pub use crate::tuple::{StreamElement, Tuple};
}
