//! Shared code of the integration-test package; the tests live in
//! `tests/tests/`.

pub mod yield_oracle;
