//! Drives the fixture facade. The linter never builds it: it reads the
//! names an example calls or names by path, which keep those pub fns off
//! `dead-pub`; a field read of the same name does not.

fn main() {
    let mut sys = graph_fixture::System {
        engine: graph_fixture::Engine,
    };
    let _ = sys.access(0);
    let _ = chameleon_core::timestamp();
    chameleon_core::publish(&mut chameleon_core::Registry);
    let _ = chameleon_core::ledgers(&[1, 2]);
    let _ = chameleon_core::example_only();
    let shape = chameleon_core::Shape {
        cores: 2,
        sockets: 1,
    };
    let _ = shape.cores + shape.sockets();
}
