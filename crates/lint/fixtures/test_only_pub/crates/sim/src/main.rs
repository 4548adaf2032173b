use sim::passed_by_name;

fn main() {
    let same: Vec<f64> = [1.0, 2.0].into_iter().map(passed_by_name).collect();
    println!("{same:?}");
}
