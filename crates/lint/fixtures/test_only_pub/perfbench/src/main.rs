fn main() {
    println!("{}", sim::benchmarked());
}
