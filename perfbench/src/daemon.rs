//! The system under test, booted in this process: one `datacelld`
//! engine or one `dccluster` router with its in-process shards. Clients
//! reach it only over sockets.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

use dccluster::ClusterConfig;
use dcserver::client::Client;
use dcserver::ServerConfig;

use crate::Res;

pub struct Daemon {
    addr: SocketAddr,
    serve: JoinHandle<Result<(), String>>,
    data_dir: Option<PathBuf>,
}

/// A fresh, empty data directory for one boot.
pub fn fresh_dir(root: &Path, name: &str) -> Res<PathBuf> {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

impl Daemon {
    pub fn engine(config: ServerConfig) -> Res<Daemon> {
        let data_dir = config.data_dir.clone();
        let server =
            dcserver::bind("127.0.0.1:0", config).map_err(|e| format!("bind datacelld: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let serve = std::thread::spawn(move || server.serve().map_err(|e| e.to_string()));
        Ok(Daemon {
            addr,
            serve,
            data_dir,
        })
    }

    pub fn cluster(config: ClusterConfig) -> Res<Daemon> {
        let data_dir = config.engine.data_dir.clone();
        let cluster = dccluster::bind_cluster("127.0.0.1:0", config)
            .map_err(|e| format!("bind dccluster: {e}"))?;
        let addr = cluster.local_addr().map_err(|e| e.to_string())?;
        let serve = std::thread::spawn(move || cluster.serve().map_err(|e| e.to_string()));
        Ok(Daemon {
            addr,
            serve,
            data_dir,
        })
    }

    pub fn client(&self) -> Res<Client> {
        Client::connect(self.addr).map_err(|e| format!("control connect: {e}"))
    }

    /// `SHUTDOWN` over the control connection, wait for every daemon
    /// thread, and delete the data directory.
    pub fn stop(self, mut control: Client) -> Res<()> {
        control.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        drop(control);
        self.serve
            .join()
            .map_err(|_| "daemon thread panicked".to_string())??;
        if let Some(dir) = self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(())
    }
}

/// Send one control request and fail on `ERR`.
pub fn request(c: &mut Client, line: &str) -> Res<Vec<String>> {
    c.request(line).map_err(|e| format!("{line}: {e}"))
}
