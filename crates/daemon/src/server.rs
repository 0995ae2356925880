//! The tempod server: socket accept loop, connection threads, tenant
//! registry, and shutdown.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use tempo::place::algorithm_for;
use tempo::program::io::read_program;

use crate::proto::{
    read_message, write_message, OP_FRAME, OP_LAYOUT, OP_OPEN, OP_SERVER_STATS, OP_SHUTDOWN,
    OP_STATS, OP_SYNC, STATUS_ERR, STATUS_OK,
};
use crate::tenant::{self, Job, Response, Tenant};
use crate::DaemonConfig;

/// State shared by the accept loop and every connection thread.
struct Shared {
    config: DaemonConfig,
    tenants: Mutex<HashMap<String, Tenant>>,
    stop: AtomicBool,
    /// One closer per *live* connection: shutting the socket down kicks
    /// a connection thread out of a blocked read so shutdown can join
    /// it even when its client never disconnects. Threads remove their
    /// own entry on exit, so the map (and the duplicated descriptors it
    /// holds) stays bounded by live connections.
    closers: Mutex<HashMap<u64, Box<dyn Fn() + Send>>>,
    /// Connection id allocator for the closer map.
    next_conn: std::sync::atomic::AtomicU64,
}

impl Shared {
    fn new(config: DaemonConfig) -> Arc<Shared> {
        Arc::new(Shared {
            config,
            tenants: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
            closers: Mutex::new(HashMap::new()),
            next_conn: std::sync::atomic::AtomicU64::new(0),
        })
    }

    fn drop_closer(&self, id: u64) {
        match self.closers.lock() {
            Ok(mut m) => {
                m.remove(&id);
            }
            Err(poisoned) => {
                poisoned.into_inner().remove(&id);
            }
        }
    }
}

/// Where the serve loop listens, kept so a shutdown request can wake the
/// blocking `accept` with a throwaway connection.
enum Endpoint {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener, SocketAddr),
}

/// A bound, not-yet-running daemon.
///
/// Binding and running are split so callers (tests, the CLI) know the
/// socket is accepting before any client starts:
///
/// ```no_run
/// use tempo::cache::CacheConfig;
/// use tempo_daemon::{DaemonConfig, Server};
///
/// let config = DaemonConfig::new(CacheConfig::direct_mapped_8k());
/// let server = Server::bind_unix("/tmp/tempod.sock", config)?;
/// server.run()?; // blocks until a client sends `shutdown`
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct Server {
    endpoint: Endpoint,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds a unix-domain socket at `path`, removing a stale socket
    /// file left by a previous run.
    ///
    /// # Errors
    ///
    /// Fails when the path cannot be bound.
    pub fn bind_unix<P: AsRef<Path>>(path: P, config: DaemonConfig) -> std::io::Result<Server> {
        let path = path.as_ref().to_path_buf();
        // A daemon that crashed leaves its socket file behind; binding
        // over it is the expected recovery. Removal failure surfaces as
        // the bind error.
        if path.exists() {
            let _ = std::fs::remove_file(&path);
        }
        let listener = UnixListener::bind(&path)?;
        Ok(Server {
            endpoint: Endpoint::Unix(listener, path),
            shared: Shared::new(config),
        })
    }

    /// Binds a TCP listener at `addr` (e.g. `127.0.0.1:0`).
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound.
    pub fn bind_tcp(addr: &str, config: DaemonConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Ok(Server {
            endpoint: Endpoint::Tcp(listener, local),
            shared: Shared::new(config),
        })
    }

    /// The bound TCP address (for `bind_tcp("…:0", …)` callers).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.endpoint {
            Endpoint::Tcp(_, addr) => Some(*addr),
            Endpoint::Unix(..) => None,
        }
    }

    /// Serves until a client sends `shutdown`: accepts connections, one
    /// thread each, then drains connections and joins every tenant
    /// worker before returning.
    ///
    /// # Errors
    ///
    /// Fails on accept-loop I/O errors (per-connection errors are
    /// handled inside their threads).
    pub fn run(self) -> std::io::Result<()> {
        let Server { endpoint, shared } = self;
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        match &endpoint {
            Endpoint::Unix(listener, path) => {
                let wake = path.clone();
                accept_loop(listener, &shared, &mut connections, move || {
                    let _ = UnixStream::connect(&wake);
                });
            }
            Endpoint::Tcp(listener, addr) => {
                let wake = *addr;
                accept_loop(listener, &shared, &mut connections, move || {
                    let _ = TcpStream::connect(wake);
                });
            }
        }
        // Kick still-connected clients off their sockets: a connection
        // blocked in a read would otherwise never exit, and the joins
        // below would wait on it forever.
        let closers: Vec<_> = match shared.closers.lock() {
            Ok(mut m) => m.drain().map(|(_, c)| c).collect(),
            Err(poisoned) => poisoned.into_inner().drain().map(|(_, c)| c).collect(),
        };
        for close in closers {
            close();
        }
        for c in connections {
            let _ = c.join();
        }
        // Dropping the senders disconnects every worker's queue; the
        // workers drain what is left and exit.
        let tenants: Vec<Tenant> = match shared.tenants.lock() {
            Ok(mut map) => map.drain().map(|(_, t)| t).collect(),
            Err(poisoned) => poisoned.into_inner().drain().map(|(_, t)| t).collect(),
        };
        for t in tenants {
            drop(t.sender);
            let _ = t.thread.join();
        }
        if let Endpoint::Unix(_, path) = &endpoint {
            let _ = std::fs::remove_file(path);
        }
        tempo_obs::event("daemon", "server stopped", &[]);
        Ok(())
    }
}

/// Generic accept loop over either listener type.
fn accept_loop<L, S>(
    listener: &L,
    shared: &Arc<Shared>,
    connections: &mut Vec<JoinHandle<()>>,
    wake: impl Fn() + Send + Sync + 'static,
) where
    L: Accept<Stream = S>,
    S: Connection + 'static,
{
    let wake = Arc::new(wake);
    loop {
        let stream = match listener.accept_stream() {
            Ok(s) => s,
            Err(_) if shared.stop.load(Ordering::SeqCst) => break,
            Err(_) => continue,
        };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Some(closer) = stream.closer() {
            match shared.closers.lock() {
                Ok(mut m) => {
                    m.insert(conn_id, closer);
                }
                Err(poisoned) => {
                    poisoned.into_inner().insert(conn_id, closer);
                }
            }
        }
        let shared = Arc::clone(shared);
        let wake = Arc::clone(&wake);
        let spawned = std::thread::Builder::new()
            .name("tempod-conn".to_string())
            .spawn(move || {
                handle_connection(stream, &shared, &*wake);
                shared.drop_closer(conn_id);
            });
        match spawned {
            Ok(handle) => connections.push(handle),
            Err(_) => tempo_obs::counter("daemon.conn_spawn_failed").incr(),
        }
        // Reap finished connection threads so a long-running daemon's
        // handle list stays bounded by its *live* connections.
        let mut i = 0;
        while i < connections.len() {
            if connections[i].is_finished() {
                let _ = connections.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
    }
}

/// The two listener types under one accept call.
trait Accept {
    /// The connection stream this listener yields.
    type Stream;
    /// Accepts one connection.
    fn accept_stream(&self) -> std::io::Result<Self::Stream>;
}

impl Accept for UnixListener {
    type Stream = UnixStream;
    fn accept_stream(&self) -> std::io::Result<UnixStream> {
        self.accept().map(|(s, _)| s)
    }
}

impl Accept for TcpListener {
    type Stream = TcpStream;
    fn accept_stream(&self) -> std::io::Result<TcpStream> {
        self.accept().map(|(s, _)| s)
    }
}

/// A connection stream that can be shut down from another thread.
trait Connection: Read + Write + Send {
    /// A callable that closes this stream out from under a blocked
    /// read, or `None` when the handle cannot be duplicated.
    fn closer(&self) -> Option<Box<dyn Fn() + Send>>;
}

impl Connection for UnixStream {
    fn closer(&self) -> Option<Box<dyn Fn() + Send>> {
        let dup = self.try_clone().ok()?;
        Some(Box::new(move || {
            let _ = dup.shutdown(std::net::Shutdown::Both);
        }))
    }
}

impl Connection for TcpStream {
    fn closer(&self) -> Option<Box<dyn Fn() + Send>> {
        let dup = self.try_clone().ok()?;
        Some(Box::new(move || {
            let _ = dup.shutdown(std::net::Shutdown::Both);
        }))
    }
}

/// One connection's message loop.
fn handle_connection<S: Read + Write>(mut stream: S, shared: &Shared, wake: &dyn Fn()) {
    tempo_obs::counter("daemon.connections").incr();
    // The tenant this connection is bound to, after `open`.
    let mut session: Option<std::sync::mpsc::SyncSender<Job>> = None;
    loop {
        let (code, payload) = match read_message(&mut stream) {
            Ok(Some(m)) => m,
            Ok(None) => break, // clean close between messages
            Err(_) => {
                // The peer died mid-message (or sent garbage lengths):
                // this connection ends, the daemon and its tenants do
                // not.
                tempo_obs::counter("daemon.conn_dropped").incr();
                tempo_obs::event("daemon", "connection dropped mid-message", &[]);
                break;
            }
        };
        tempo_obs::counter("daemon.messages").incr();
        let outcome = match code {
            OP_OPEN => {
                let reply = open_session(&payload, shared, &mut session);
                send_reply(&mut stream, reply)
            }
            OP_FRAME => match &session {
                // Fire-and-forget. A blocking send on a full tenant
                // queue is the backpressure path: this thread stops
                // reading its socket until the engine catches up.
                Some(sender) => match sender.send(Job::Frame(payload)) {
                    Ok(()) => Ok(()),
                    Err(_) => send_reply(
                        &mut stream,
                        Response::Err("tenant worker is gone".to_string()),
                    ),
                },
                None => send_reply(
                    &mut stream,
                    Response::Err("frame before open: bind a tenant first".to_string()),
                ),
            },
            OP_SYNC | OP_LAYOUT | OP_STATS => {
                let reply = query_session(code, &session);
                send_reply(&mut stream, reply)
            }
            OP_SERVER_STATS => send_reply(
                &mut stream,
                Response::Ok(tempo_obs::snapshot().render_json().into_bytes()),
            ),
            OP_SHUTDOWN => {
                tempo_obs::event("daemon", "shutdown requested", &[]);
                let _ = send_reply(&mut stream, Response::Ok(Vec::new()));
                shared.stop.store(true, Ordering::SeqCst);
                wake();
                break;
            }
            other => {
                let _ = send_reply(
                    &mut stream,
                    Response::Err(format!("unknown opcode 0x{other:02x}")),
                );
                break;
            }
        };
        if outcome.is_err() {
            tempo_obs::counter("daemon.conn_dropped").incr();
            break;
        }
    }
}

/// Handles `open`: binds this connection to a tenant, spawning its
/// worker on first sight of the name.
fn open_session(
    payload: &[u8],
    shared: &Shared,
    session: &mut Option<std::sync::mpsc::SyncSender<Job>>,
) -> Response {
    let Ok(text) = std::str::from_utf8(payload) else {
        return Response::Err("open payload is not UTF-8".to_string());
    };
    let (name, program_text) = match text.split_once('\n') {
        Some((n, rest)) => (n.trim(), rest),
        None => (text.trim(), ""),
    };
    if name.is_empty() {
        return Response::Err("open payload names no tenant".to_string());
    }
    let mut tenants = match shared.tenants.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(tenant) = tenants.get(name) {
        *session = Some(tenant.sender.clone());
        return Response::Ok(Vec::new());
    }
    if program_text.trim().is_empty() {
        return Response::Err(format!(
            "unknown tenant `{name}` and no program supplied to create it"
        ));
    }
    let program = match read_program(program_text.as_bytes()) {
        Ok(p) => p,
        Err(e) => return Response::Err(format!("tenant program does not parse: {e}")),
    };
    // Tenant engines build no pair database.
    let algorithm = match algorithm_for(&shared.config.algorithm, shared.config.cache, false) {
        Ok(a) => a,
        Err(e) => return Response::Err(e),
    };
    let tenant = match tenant::spawn(name, program, algorithm, shared.config.clone()) {
        Ok(t) => t,
        Err(e) => return Response::Err(format!("tenant worker failed to start: {e}")),
    };
    *session = Some(tenant.sender.clone());
    tempo_obs::counter("daemon.tenants").incr();
    tempo_obs::event("daemon", "tenant created", &[("tenant", name.into())]);
    tenants.insert(name.to_string(), tenant);
    Response::Ok(Vec::new())
}

/// Routes a barrier query through the tenant's queue and waits for the
/// worker's reply.
fn query_session(code: u8, session: &Option<std::sync::mpsc::SyncSender<Job>>) -> Response {
    let Some(sender) = session else {
        return Response::Err("request before open: bind a tenant first".to_string());
    };
    let (reply_tx, reply_rx) = sync_channel(1);
    let job = match code {
        OP_SYNC => Job::Sync(reply_tx),
        OP_LAYOUT => Job::Layout(reply_tx),
        _ => Job::Stats(reply_tx),
    };
    if sender.send(job).is_err() {
        return Response::Err("tenant worker is gone".to_string());
    }
    match reply_rx.recv() {
        Ok(r) => r,
        Err(_) => Response::Err("tenant worker dropped the request".to_string()),
    }
}

/// Writes a reply message and flushes it.
fn send_reply<S: Read + Write>(stream: &mut S, response: Response) -> std::io::Result<()> {
    match response {
        Response::Ok(payload) => write_message(stream, STATUS_OK, &payload)?,
        Response::Err(message) => write_message(stream, STATUS_ERR, message.as_bytes())?,
    }
    stream.flush()
}
