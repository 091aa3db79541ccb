//! Wire-level checks of the daemon's HTTP edge: raw, possibly
//! malformed bytes written to a real [`Server`](crate::Server) socket,
//! status codes read back — the view a misbehaving client gets.
//!
//! The framing itself is [`httpwire`]'s sans-IO parser and is
//! unit-tested there; these tests pin how the reactor *answers* a
//! framing violation: malformed input is a `400` and closes the
//! connection, only an honest-but-oversized declaration is a `413`,
//! and neither disturbs the daemon.

#[cfg(test)]
mod tests {
    use crate::{Client, ServeConfig, Server};
    use httpwire::{HttpConnection, MAX_HEADER_LINES};
    use std::io::Write;
    use std::net::TcpStream;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn boot() -> (PathBuf, String, std::thread::JoinHandle<()>) {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "charserve-http-test-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            store_dir: dir.clone(),
            ..ServeConfig::default()
        };
        let server = Server::bind(&cfg).expect("bind charserve");
        let addr = server.local_addr().to_string();
        let daemon = std::thread::spawn(move || server.serve().expect("serve"));
        (dir, addr, daemon)
    }

    /// Writes `wire` on a fresh connection and returns the status of
    /// the single response, asserting the daemon then closes it.
    fn status_of(addr: &str, wire: &[u8]) -> u16 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(wire).unwrap();
        s.flush().unwrap();
        let mut conn = HttpConnection::from(s);
        let (head, _) = conn.read_response(crate::router::MAX_BODY_BYTES).unwrap();
        assert!(
            !head.keep_alive,
            "framing rejection left the connection open"
        );
        head.status
    }

    fn stop(dir: PathBuf, addr: &str, daemon: std::thread::JoinHandle<()>) {
        Client::new(addr).shutdown().expect("shutdown");
        daemon.join().expect("daemon thread");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn overflowing_content_length_is_a_framing_error_not_a_413() {
        // A length that does not even fit in u64 is malformed input
        // (400), not an honest-but-oversized declaration (413). Either
        // way, no buffer is allocated. Same for a negative length.
        let (dir, addr, daemon) = boot();
        for bad in ["99999999999999999999999999", "-5"] {
            let wire = format!("POST /characterize HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n");
            assert_eq!(
                status_of(&addr, wire.as_bytes()),
                400,
                "Content-Length: {bad}"
            );
        }
        assert!(Client::new(&addr).healthz().is_ok());
        stop(dir, &addr, daemon);
    }

    #[test]
    fn header_floods_are_rejected() {
        // The flood never sends the blank line that ends a head: the
        // daemon must reject it on the header count alone instead of
        // buffering until the head deadline.
        let (dir, addr, daemon) = boot();
        let mut wire = b"GET /healthz HTTP/1.1\r\n".to_vec();
        for i in 0..(MAX_HEADER_LINES + 2) {
            wire.extend_from_slice(format!("X-Flood-{i}: y\r\n").as_bytes());
        }
        assert_eq!(status_of(&addr, &wire), 400);
        assert!(Client::new(&addr).healthz().is_ok());
        stop(dir, &addr, daemon);
    }
}
