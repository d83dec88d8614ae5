//! The TCP client, mirroring the paper's prototype shape — "clients and
//! servers are implemented as UNIX processes that use a reliable
//! transport protocol (TCP/IP) … a server process listens at a
//! well-known port for connections from clients." The listening side is
//! [`Deployment::tcp`](crate::Deployment::tcp).

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};

use shadow_client::ClientConfig;
use shadow_netsim::tcp::TcpFramed;

use crate::live::LiveClient;

/// A [`LiveClient`](crate::LiveClient) over a TCP connection.
pub type TcpClient = LiveClient<TcpFramed>;

/// Connects a TCP client to a listening
/// [`TcpDeployment`](crate::TcpDeployment) (or `shadowd`) and sends the
/// `Hello`.
///
/// The client redials `addr` by itself: when its link is lost, its waits
/// ([`LiveClient::wait_for`] and the waits built on it) back off, dial
/// again and resume the session, keeping its shadow-cache knowledge.
///
/// # Errors
///
/// Socket or handshake failures.
pub fn connect_tcp(config: ClientConfig, addr: impl ToSocketAddrs) -> io::Result<TcpClient> {
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    let transport = TcpFramed::connect(&addrs[..])?;
    let dialer = Box::new(move || TcpFramed::connect(&addrs[..]));
    LiveClient::start(config, transport, Some(dialer)).map_err(|e| {
        // Preserve the real failure kind: an orderly close during the
        // handshake is not a reset, and a reset is not a decode error.
        let kind = match e.closed() {
            Some(closed) => closed
                .error_kind()
                .unwrap_or(io::ErrorKind::ConnectionAborted),
            None => io::ErrorKind::InvalidData,
        };
        io::Error::new(kind, e.to_string())
    })
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::deploy::Deployment;
    use shadow_client::FileRef;
    use shadow_proto::{FileId, SubmitOptions};
    use shadow_server::{ExecProfile, ServerConfig};

    #[test]
    fn tcp_end_to_end_job() {
        let runtime = Deployment::new(ServerConfig::new("sc"))
            .tcp("127.0.0.1:0")
            .unwrap();
        let addr = runtime.local_addr().unwrap();
        let handle =
            std::thread::spawn(move || runtime.run_until_idle_for(Duration::from_millis(400)));

        let mut client = connect_tcp(ClientConfig::new("ws", 1), addr).unwrap();
        client.wait_ready(Duration::from_secs(5)).unwrap();
        let job = FileRef::new(FileId::new(1), "ws:/t.job");
        client.edit_finished(&job, b"echo over tcp\n".to_vec());
        client.submit(&job, &[], SubmitOptions::default()).unwrap();
        let (_, output, _, stats) = client.wait_job(Duration::from_secs(10)).unwrap();
        assert_eq!(output, b"over tcp\n");
        assert_eq!(stats.exit_code, 0);
        drop(client);
        let node = handle.join().unwrap().unwrap().remove(0);
        assert_eq!(node.report().counter("server", "jobs_completed"), 1);
    }

    #[test]
    fn tcp_delta_resubmission() {
        let runtime = Deployment::new(ServerConfig::new("sc"))
            .tcp("127.0.0.1:0")
            .unwrap();
        let addr = runtime.local_addr().unwrap();
        let handle =
            std::thread::spawn(move || runtime.run_until_idle_for(Duration::from_millis(400)));

        let mut client = connect_tcp(ClientConfig::new("ws", 1), addr).unwrap();
        client.wait_ready(Duration::from_secs(5)).unwrap();
        let data = FileRef::new(FileId::new(2), "ws:/data");
        let job = FileRef::new(FileId::new(1), "ws:/t.job");
        let content: Vec<u8> = (0..2000)
            .flat_map(|i| format!("row {i}\n").into_bytes())
            .collect();
        client.edit_finished(&data, content.clone());
        client.edit_finished(&job, b"wc ws:/data\n".to_vec());
        client
            .submit(&job, std::slice::from_ref(&data), SubmitOptions::default())
            .unwrap();
        client.wait_job(Duration::from_secs(10)).unwrap();

        let mut edited = content;
        edited.extend_from_slice(b"appended row\n");
        client.edit_finished(&data, edited);
        client
            .submit(&job, &[data], SubmitOptions::default())
            .unwrap();
        client.wait_job(Duration::from_secs(10)).unwrap();
        assert_eq!(client.report().counter("client", "deltas_sent"), 1);
        drop(client);
        let node = handle.join().unwrap().unwrap().remove(0);
        assert_eq!(node.report().counter("server", "delta_updates"), 1);
    }

    #[test]
    fn sharded_tcp_end_to_end_jobs_across_domains() {
        let runtime = Deployment::new(ServerConfig::new("sc"))
            .shards(2)
            .tcp("127.0.0.1:0")
            .unwrap();
        let addr = runtime.local_addr().unwrap();
        let handle =
            std::thread::spawn(move || runtime.run_until_idle_for(Duration::from_millis(400)));

        let mut clients: Vec<TcpClient> = (1..=3u64)
            .map(|d| connect_tcp(ClientConfig::new(format!("ws{d}"), d), addr).unwrap())
            .collect();
        for (i, c) in clients.iter_mut().enumerate() {
            c.wait_ready(Duration::from_secs(5)).unwrap();
            let job = FileRef::new(FileId::new(1), "ws:/t.job");
            c.edit_finished(&job, format!("echo tcp shard {i}\n").into_bytes());
            c.submit(&job, &[], SubmitOptions::default()).unwrap();
        }
        for (i, c) in clients.iter_mut().enumerate() {
            let (_, output, _, stats) = c.wait_job(Duration::from_secs(10)).unwrap();
            assert_eq!(output, format!("tcp shard {i}\n").into_bytes());
            assert_eq!(stats.exit_code, 0);
        }
        drop(clients);
        let nodes = handle.join().unwrap().unwrap();
        assert_eq!(nodes.len(), 2);
        let total: u64 = nodes
            .iter()
            .map(|n| n.report().counter("server", "jobs_completed"))
            .sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn parked_sessions_do_not_slow_an_active_one() {
        // No modelled exec time: a cycle costs only the runtime's own work.
        let config = ServerConfig::new("sc").with_exec(ExecProfile {
            job_overhead_ms: 0,
            cpu_byte_rate: u64::MAX,
        });
        let runtime = Deployment::new(config).tcp("127.0.0.1:0").unwrap();
        let addr = runtime.local_addr().unwrap();
        let handle =
            std::thread::spawn(move || runtime.run_until_idle_for(Duration::from_millis(400)));

        let parked: Vec<TcpClient> = (1..=8u64)
            .map(|d| {
                let mut c = connect_tcp(ClientConfig::new(format!("p{d}"), d), addr).unwrap();
                c.wait_ready(Duration::from_secs(5)).unwrap();
                c
            })
            .collect();
        let mut client = connect_tcp(ClientConfig::new("ws", 100), addr).unwrap();
        client.wait_ready(Duration::from_secs(5)).unwrap();
        let job = FileRef::new(FileId::new(1), "ws:/t.job");
        for cycle in 0..5 {
            let started = std::time::Instant::now();
            client.edit_finished(&job, format!("echo cycle {cycle}\n").into_bytes());
            client.submit(&job, &[], SubmitOptions::default()).unwrap();
            let (_, output, _, _) = client.wait_job(Duration::from_secs(10)).unwrap();
            assert_eq!(output, format!("cycle {cycle}\n").into_bytes());
            let took = started.elapsed();
            assert!(
                took < Duration::from_millis(100),
                "cycle {cycle} took {took:?} beside 8 parked sessions"
            );
        }
        drop(client);
        drop(parked);
        let node = handle.join().unwrap().unwrap().remove(0);
        assert_eq!(node.report().counter("server", "jobs_completed"), 5);
    }
}
