//! The system under test, embedded in-process: an `SlaService` behind a
//! `Gate` on a loopback port, plus the benchmark's one keep-alive HTTP
//! client connection.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use cos_gate::{Gate, GateConfig};
use cos_serve::{ServeConfig, ServiceHandle, SlaService, SnapshotReader};

use crate::inputs::{base, Inputs, SLAS};

/// One keep-alive connection with one request in flight.
pub struct Client {
    stream: TcpStream,
    /// Receive buffer; `buf[..filled]` holds the current response.
    buf: Vec<u8>,
    filled: usize,
    body: (usize, usize),
}

impl Client {
    /// Connects with Nagle off (every request is one write).
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            stream,
            buf: vec![0; 1 << 16],
            filled: 0,
            body: (0, 0),
        })
    }

    /// Sends one request and reads its whole response; returns the status.
    /// The body stays readable through [`Client::body`] until the next call.
    pub fn roundtrip(&mut self, wire: &[u8]) -> io::Result<u16> {
        self.stream.write_all(wire)?;
        self.filled = 0;
        let mut scanned = 0usize;
        let head_end = loop {
            let from = scanned.saturating_sub(3);
            if let Some(i) = find(&self.buf[from..self.filled], b"\r\n\r\n") {
                break from + i + 4;
            }
            scanned = self.filled;
            self.fill()?;
        };
        let head = &self.buf[..head_end];
        let status = head
            .get(9..12)
            .and_then(|s| std::str::from_utf8(s).ok()?.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let length = content_length(head).ok_or_else(|| bad("missing Content-Length"))?;
        while self.filled < head_end + length {
            self.fill()?;
        }
        if self.filled != head_end + length {
            return Err(bad("bytes beyond the response"));
        }
        self.body = (head_end, head_end + length);
        Ok(status)
    }

    /// The last response's body.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body.0..self.body.1]
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.buf.len() - self.filled < 4096 {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        match self.stream.read(&mut self.buf[self.filled..])? {
            0 => Err(bad("connection closed mid-response")),
            n => {
                self.filled += n;
                Ok(())
            }
        }
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn content_length(head: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(head).ok()?;
    text.split("\r\n").find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse().ok())?
    })
}

/// A running service + gate + client.
pub struct Stack {
    /// The service thread's handle.
    pub handle: ServiceHandle,
    /// The front door.
    pub gate: Gate,
    /// The benchmark's connection.
    pub client: Client,
    /// In-process view of the published fleet (for refit detection and
    /// the answer check; never on the request path).
    pub reader: SnapshotReader,
}

impl Stack {
    /// The service configuration every set-up uses: the defaults (5 s
    /// refit cadence, 30 s calibration window) with the configured SLAs.
    pub fn config(registry: cos_obs::Registry) -> ServeConfig {
        ServeConfig {
            slas: SLAS.to_vec(),
            obs: registry,
            ..ServeConfig::default()
        }
    }

    /// A fresh set-up from an empty service to the first correct answer:
    /// ingest the fleet history, first `refit_now`, spawn, bind, connect,
    /// first 200. Returns the stack and the wall time it took.
    pub fn setup(inputs: &Inputs) -> io::Result<(Stack, Duration)> {
        let start = Instant::now();
        let registry = cos_obs::Registry::new();
        let mut service = SlaService::new(base(), Stack::config(registry.clone()));
        for (t, ev) in &inputs.history {
            service.ingest_for(&inputs.tenant_ids[*t as usize], *ev);
        }
        service.refit_now();
        let handle = service.spawn();
        let reader = handle.reader();
        let gate = Gate::bind(
            "127.0.0.1:0",
            handle.client(),
            GateConfig {
                obs: registry,
                ..GateConfig::default()
            },
        )?;
        let mut client = Client::connect(gate.local_addr())?;
        let status = client.roundtrip(&inputs.probe.wire)?;
        let elapsed = start.elapsed();
        if status != 200 {
            return Err(bad("set-up probe did not answer 200"));
        }
        Ok((
            Stack {
                handle,
                gate,
                client,
                reader,
            },
            elapsed,
        ))
    }

    /// Closes the connection, drains the gate, and joins the service.
    pub fn teardown(self) {
        drop(self.client);
        self.gate.shutdown();
        self.handle
            .shutdown()
            .expect("service thread exits cleanly");
    }
}
