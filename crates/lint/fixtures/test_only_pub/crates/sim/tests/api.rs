#[test]
fn api() {
    assert_eq!(sim::only_integration_tested(), 2);
    assert_eq!(sim::only_reexported(), 6);
}
