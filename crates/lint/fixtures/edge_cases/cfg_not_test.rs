//! Edge case: `#[cfg(not(test))]` marks production code, so an
//! unjustified `.unwrap()` under it must still fire `panic-policy`.

#[cfg(not(test))]
pub fn prod(x: Option<u32>) -> u32 {
    x.unwrap()
}
