//! A minimal `dcl1d` client: submit a small sweep, watch the progress
//! stream, then print the tenant's status.
//!
//! ```text
//! cargo run --example dcl1_client -- 127.0.0.1:4411 my-tenant
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn send_line(stream: &mut TcpStream, line: &str) -> std::io::Result<String> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut reply = String::new();
    reader.read_line(&mut reply)?;
    Ok(reply.trim_end().to_string())
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = args.first().map_or("127.0.0.1:4411", String::as_str);
    let tenant = args.get(1).map_or("example", String::as_str);

    // A second connection subscribed to the event stream: the daemon
    // fans every runner and scheduler progress line out to it.
    let mut events = TcpStream::connect(addr)?;
    let ack = send_line(&mut events, "{\"cmd\":\"subscribe\"}")?;
    println!("subscribe -> {ack}");

    let mut ctl = TcpStream::connect(addr)?;
    let submit = format!(
        "{{\"cmd\":\"submit\",\"tenant\":\"{tenant}\",\"grid\":true,\
         \"only\":[\"C-BLK\"],\"priority\":1}}"
    );
    println!("submit -> {}", send_line(&mut ctl, &submit)?);

    // Read events until the sweep's four points have completed.
    let mut done = 0;
    let reader = BufReader::new(events.try_clone()?);
    for line in reader.lines() {
        let line = line?;
        println!("event  <- {line}");
        if line.contains("\"completed\"") || line.contains("\"quarantined\"") {
            done += 1;
            if done >= 4 {
                break;
            }
        }
    }

    let status = format!("{{\"cmd\":\"status\",\"tenant\":\"{tenant}\"}}");
    println!("status -> {}", send_line(&mut ctl, &status)?);
    Ok(())
}
