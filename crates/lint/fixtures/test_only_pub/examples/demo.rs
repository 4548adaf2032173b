fn main() {
    println!("{}", sim::shown_in_example(&[3]));
}
