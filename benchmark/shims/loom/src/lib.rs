//! Empty on purpose: the benchmarked crates declare this dependency but never call it.
