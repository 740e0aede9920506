//! # inetgen — a synthetic Internet calibrated to the paper
//!
//! The study measured the real IPv4 Internet; this crate substitutes a
//! deterministic, seedable population whose *aggregates* match what the
//! paper published:
//!
//! * Table 1's global composition (26 % transparent forwarders, 72 %
//!   recursive forwarders, 2 % recursive resolvers);
//! * Figures 3/4's country skew (top-10 countries ≈ 90 % of transparent
//!   forwarders; Brazil/India > 80 % transparent; emerging-market bias);
//! * Figure 5's resolver mixes (India → Google, Turkey → one local
//!   resolver, …) including Table 4's indirect-consolidation chains;
//! * Figure 8's /24 density mixture (sparse CPE vs whole-prefix
//!   middleboxes) and §6's device attribution (≈23 % MikroTik);
//! * Table 5's Shadowserver divergences, via in-path response manipulators
//!   that only single-record pipelines count.
//!
//! The generator plants ground truth and returns the Routeviews/MaxMind
//! style lookup data the analysis needs — the measurement pipeline then
//! has to *re-discover* the population through wire-level scanning.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod config;
pub mod countries;
pub mod geodb;
pub mod shard;
pub mod validate;

pub use build::{
    generate, generate_shard, Fixtures, GroundTruth, Internet, PlantedClass, PlantedHost,
};
pub use config::{CountrySelection, GenConfig};
pub use countries::{
    by_code, by_transparent_desc, CountryProfile, OtherProfile, Region, ResolverMix, COUNTRIES,
};
pub use geodb::{AsnInfo, GeoDb};
pub use shard::{shard_of_country, ShardFailure, ShardSpec, ShardWorldCache, ShardedRun};
pub use validate::{check_marginals, Deviation};
