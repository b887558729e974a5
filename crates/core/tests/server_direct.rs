//! Direct tests of the Vice server's request handler, bypassing Venus —
//! the server must be correct against arbitrary (including hostile)
//! request streams, not just the ones a well-behaved Venus sends.

use itc_core::protect::{AccessList, ProtectionDomain, Rights};
use itc_core::proto::{ServerId, ViceError, ViceReply, ViceRequest};
use itc_core::server::Server;
use itc_core::volume::{Volume, VolumeId};
use itc_rpc::NodeId;
use itc_sim::{Costs, SimTime, TraversalMode, ValidationMode};
use std::sync::{Arc, RwLock};

const WS: NodeId = NodeId(10);
const WS2: NodeId = NodeId(11);

fn make_server(validation: ValidationMode) -> Server {
    let mut domain = ProtectionDomain::new();
    domain.add_user("alice", "pw").unwrap();
    domain.add_user("mallory", "pw").unwrap();
    domain.add_group("staff").unwrap();
    domain.add_member("staff", "alice").unwrap();
    let domain = Arc::new(RwLock::new(domain));

    let mut srv = Server::new(
        ServerId(0),
        NodeId(0),
        domain,
        validation,
        TraversalMode::ServerSide,
    );
    let mut acl = AccessList::new();
    acl.grant("staff", Rights::ALL);
    acl.grant("anyuser", Rights::READ_ONLY);
    let mut vol = Volume::new(VolumeId(1), "test", "/vice/t", acl);
    vol.store("/hello.txt", 1, 0, &b"hello".to_vec().into())
        .unwrap();
    srv.add_volume(vol);
    srv.location_mut().assign("/vice/t", ServerId(0));
    srv
}

fn call(srv: &mut Server, user: &str, from: NodeId, req: ViceRequest) -> ViceReply {
    let costs = Costs::prototype_1985();
    srv.handle(user, from, &req, SimTime::from_secs(1), &costs)
        .0
}

#[test]
fn fetch_checks_rights_and_returns_data_with_status() {
    let mut srv = make_server(ValidationMode::CheckOnOpen);
    match call(
        &mut srv,
        "alice",
        WS,
        ViceRequest::Fetch {
            path: "/vice/t/hello.txt".into(),
        },
    ) {
        ViceReply::Data { status, data } => {
            assert_eq!(data, b"hello");
            assert_eq!(status.size, 5);
            assert!(status.fid > 0);
            assert!(!status.read_only);
        }
        other => panic!("unexpected reply: {other:?}"),
    }
    // anyuser READ_ONLY still allows fetch...
    assert!(matches!(
        call(
            &mut srv,
            "mallory",
            WS,
            ViceRequest::Fetch {
                path: "/vice/t/hello.txt".into()
            }
        ),
        ViceReply::Data { .. }
    ));
    // ...but not store.
    assert!(matches!(
        call(
            &mut srv,
            "mallory",
            WS,
            ViceRequest::Store {
                path: "/vice/t/hello.txt".into(),
                data: vec![].into()
            }
        ),
        ViceReply::Error(ViceError::PermissionDenied(_))
    ));
}

#[test]
fn uncovered_paths_answer_with_custodian_hint() {
    let mut srv = make_server(ValidationMode::CheckOnOpen);
    srv.location_mut().assign("/vice/elsewhere", ServerId(3));
    match call(
        &mut srv,
        "alice",
        WS,
        ViceRequest::Fetch {
            path: "/vice/elsewhere/x".into(),
        },
    ) {
        ViceReply::Error(ViceError::NotCustodian(Some(s))) => assert_eq!(s, ServerId(3)),
        other => panic!("unexpected reply: {other:?}"),
    }
    // Paths nobody covers: hint is None.
    assert!(matches!(
        call(
            &mut srv,
            "alice",
            WS,
            ViceRequest::Fetch {
                path: "/vice/void/x".into()
            }
        ),
        ViceReply::Error(ViceError::NotCustodian(None))
    ));
}

#[test]
fn location_db_overrides_an_enclosing_volume() {
    // The server hosts /vice/t, but the location database says a deeper
    // subtree /vice/t/moved now belongs to server 5 (the volume moved).
    let mut srv = make_server(ValidationMode::CheckOnOpen);
    srv.location_mut().assign("/vice/t/moved", ServerId(5));
    assert!(matches!(
        call(
            &mut srv,
            "alice",
            WS,
            ViceRequest::Fetch {
                path: "/vice/t/moved/f".into()
            }
        ),
        ViceReply::Error(ViceError::NotCustodian(Some(ServerId(5))))
    ));
    // Sibling paths under /vice/t are still served here.
    assert!(matches!(
        call(
            &mut srv,
            "alice",
            WS,
            ViceRequest::Fetch {
                path: "/vice/t/hello.txt".into()
            }
        ),
        ViceReply::Data { .. }
    ));
}

#[test]
fn callback_promises_registered_and_broken() {
    let mut srv = make_server(ValidationMode::Callback);
    // Two workstations fetch: two promises.
    call(
        &mut srv,
        "alice",
        WS,
        ViceRequest::Fetch {
            path: "/vice/t/hello.txt".into(),
        },
    );
    call(
        &mut srv,
        "alice",
        WS2,
        ViceRequest::Fetch {
            path: "/vice/t/hello.txt".into(),
        },
    );
    assert_eq!(srv.callback_promises(), 2);

    // WS stores: WS2's promise breaks, WS gets a fresh one.
    call(
        &mut srv,
        "alice",
        WS,
        ViceRequest::Store {
            path: "/vice/t/hello.txt".into(),
            data: b"v2".to_vec().into(),
        },
    );
    let breaks = srv.drain_breaks();
    assert_eq!(breaks.len(), 1);
    assert_eq!(breaks[0].0, WS2);
    assert_eq!(breaks[0].1.path, "/vice/t/hello.txt");
    // Draining empties the queue.
    assert!(srv.drain_breaks().is_empty());
}

#[test]
fn check_on_open_mode_keeps_no_callback_state() {
    let mut srv = make_server(ValidationMode::CheckOnOpen);
    call(
        &mut srv,
        "alice",
        WS,
        ViceRequest::Fetch {
            path: "/vice/t/hello.txt".into(),
        },
    );
    call(
        &mut srv,
        "alice",
        WS2,
        ViceRequest::Store {
            path: "/vice/t/hello.txt".into(),
            data: b"v2".to_vec().into(),
        },
    );
    assert_eq!(srv.callback_promises(), 0);
    assert!(srv.drain_breaks().is_empty());
}

#[test]
fn validate_compares_fid_and_version() {
    let mut srv = make_server(ValidationMode::CheckOnOpen);
    let (fid, version) = match call(
        &mut srv,
        "alice",
        WS,
        ViceRequest::GetStatus {
            path: "/vice/t/hello.txt".into(),
        },
    ) {
        ViceReply::Status(s) => (s.fid, s.version),
        other => panic!("{other:?}"),
    };
    // Current (fid, version): valid.
    assert!(matches!(
        call(
            &mut srv,
            "alice",
            WS,
            ViceRequest::Validate {
                path: "/vice/t/hello.txt".into(),
                fid,
                version
            }
        ),
        ViceReply::Validated { valid: true, .. }
    ));
    // Stale version: invalid, fresh status returned.
    match call(
        &mut srv,
        "alice",
        WS,
        ViceRequest::Validate {
            path: "/vice/t/hello.txt".into(),
            fid,
            version: version + 7,
        },
    ) {
        ViceReply::Validated {
            valid: false,
            status: Some(s),
        } => {
            assert_eq!(s.version, version);
        }
        other => panic!("{other:?}"),
    }
    // Right version but wrong identity (recreated file): invalid.
    assert!(matches!(
        call(
            &mut srv,
            "alice",
            WS,
            ViceRequest::Validate {
                path: "/vice/t/hello.txt".into(),
                fid: fid + 1,
                version
            }
        ),
        ViceReply::Validated { valid: false, .. }
    ));
}

#[test]
fn directory_fetch_returns_a_listing_blob() {
    let mut srv = make_server(ValidationMode::CheckOnOpen);
    call(
        &mut srv,
        "alice",
        WS,
        ViceRequest::MakeDir {
            path: "/vice/t/sub".into(),
        },
    );
    match call(
        &mut srv,
        "alice",
        WS,
        ViceRequest::Fetch {
            path: "/vice/t".into(),
        },
    ) {
        ViceReply::Data { status, data } => {
            assert_eq!(status.kind, itc_core::proto::EntryKind::Dir);
            let text = String::from_utf8(data.into_vec()).unwrap();
            assert!(text.contains("fhello.txt"), "{text}");
            assert!(text.contains("dsub"), "{text}");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn symlink_fetch_returns_translated_target() {
    let mut srv = make_server(ValidationMode::CheckOnOpen);
    // A relative link and an absolute cross-volume link.
    call(
        &mut srv,
        "alice",
        WS,
        ViceRequest::MakeSymlink {
            path: "/vice/t/rel".into(),
            target: "hello.txt".into(),
        },
    );
    call(
        &mut srv,
        "alice",
        WS,
        ViceRequest::MakeSymlink {
            path: "/vice/t/abs".into(),
            target: "/vice/other/f".into(),
        },
    );
    assert_eq!(
        call(
            &mut srv,
            "alice",
            WS,
            ViceRequest::Fetch {
                path: "/vice/t/rel".into()
            }
        ),
        ViceReply::Link("/vice/t/hello.txt".into())
    );
    assert_eq!(
        call(
            &mut srv,
            "alice",
            WS,
            ViceRequest::Fetch {
                path: "/vice/t/abs".into()
            }
        ),
        ViceReply::Link("/vice/other/f".into())
    );
}

#[test]
fn acl_administration_requires_the_right() {
    let mut srv = make_server(ValidationMode::CheckOnOpen);
    let mut new_acl = AccessList::new();
    new_acl.grant("mallory", Rights::ALL);
    // mallory (anyuser: READ_ONLY) may not administer.
    assert!(matches!(
        call(
            &mut srv,
            "mallory",
            WS,
            ViceRequest::SetAcl {
                path: "/vice/t".into(),
                acl: new_acl.clone()
            }
        ),
        ViceReply::Error(ViceError::PermissionDenied(_))
    ));
    // alice (staff: ALL) may.
    assert!(matches!(
        call(
            &mut srv,
            "alice",
            WS,
            ViceRequest::SetAcl {
                path: "/vice/t".into(),
                acl: new_acl.clone()
            }
        ),
        ViceReply::Ok
    ));
    // And the new list is in force: alice lost her access.
    assert!(matches!(
        call(
            &mut srv,
            "alice",
            WS,
            ViceRequest::Fetch {
                path: "/vice/t/hello.txt".into()
            }
        ),
        ViceReply::Error(ViceError::PermissionDenied(_))
    ));
}

#[test]
fn readonly_replica_serves_reads_but_not_writes() {
    let mut srv = make_server(ValidationMode::CheckOnOpen);
    // Clone the volume and host only the clone on a second server.
    let clone = {
        // The protection database is replicated at each server: the
        // replica knows the same users and groups.
        let domain = Arc::new(RwLock::new(ProtectionDomain::new()));
        {
            let mut d = domain.write().expect("protection domain lock");
            d.add_user("alice", "pw").unwrap();
            d.add_group("staff").unwrap();
            d.add_member("staff", "alice").unwrap();
        }
        let mut replica_srv = Server::new(
            ServerId(1),
            NodeId(1),
            domain,
            ValidationMode::CheckOnOpen,
            TraversalMode::ServerSide,
        );
        let vol_id = srv.volumes()[0].id();
        let clone = srv
            .volume_mut(vol_id)
            .unwrap()
            .clone_readonly(VolumeId(100));
        replica_srv.add_volume(clone);
        replica_srv.location_mut().assign("/vice/t", ServerId(0));
        replica_srv
            .location_mut()
            .add_replica("/vice/t", ServerId(1));
        replica_srv
    };
    let mut replica_srv = clone;
    match call(
        &mut replica_srv,
        "alice",
        WS,
        ViceRequest::Fetch {
            path: "/vice/t/hello.txt".into(),
        },
    ) {
        ViceReply::Data { status, data } => {
            assert_eq!(data, b"hello");
            assert!(status.read_only, "replica data must be marked read-only");
        }
        other => panic!("{other:?}"),
    }
    assert!(matches!(
        call(
            &mut replica_srv,
            "alice",
            WS,
            ViceRequest::Store {
                path: "/vice/t/hello.txt".into(),
                data: b"x".to_vec().into()
            }
        ),
        ViceReply::Error(ViceError::ReadOnlyVolume(_))
    ));
}

#[test]
fn mkdir_inherits_parent_acl() {
    let mut srv = make_server(ValidationMode::CheckOnOpen);
    call(
        &mut srv,
        "alice",
        WS,
        ViceRequest::MakeDir {
            path: "/vice/t/sub".into(),
        },
    );
    match call(
        &mut srv,
        "alice",
        WS,
        ViceRequest::GetAcl {
            path: "/vice/t/sub".into(),
        },
    ) {
        ViceReply::Acl(acl) => {
            assert_eq!(acl.effective_rights(["x", "staff"]), Rights::ALL);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn mount_root_mkdir_reports_already_exists() {
    let mut srv = make_server(ValidationMode::CheckOnOpen);
    assert!(matches!(
        call(
            &mut srv,
            "alice",
            WS,
            ViceRequest::MakeDir {
                path: "/vice/t".into()
            }
        ),
        ViceReply::Error(ViceError::AlreadyExists(_))
    ));
}

#[test]
fn server_side_traversal_charges_per_component() {
    let mut srv = make_server(ValidationMode::CheckOnOpen);
    let costs = Costs::prototype_1985();
    let (_, shallow) = srv.handle(
        "alice",
        WS,
        &ViceRequest::Fetch {
            path: "/vice/t/hello.txt".into(),
        },
        SimTime::ZERO,
        &costs,
    );
    call(
        &mut srv,
        "alice",
        WS,
        ViceRequest::MakeDir {
            path: "/vice/t/a".into(),
        },
    );
    call(
        &mut srv,
        "alice",
        WS,
        ViceRequest::MakeDir {
            path: "/vice/t/a/b".into(),
        },
    );
    call(
        &mut srv,
        "alice",
        WS,
        ViceRequest::Store {
            path: "/vice/t/a/b/deep.txt".into(),
            data: b"d".to_vec().into(),
        },
    );
    let (_, deep) = srv.handle(
        "alice",
        WS,
        &ViceRequest::Fetch {
            path: "/vice/t/a/b/deep.txt".into(),
        },
        SimTime::ZERO,
        &costs,
    );
    assert!(
        deep.server_cpu > shallow.server_cpu,
        "deeper paths must cost more CPU: {:?} vs {:?}",
        deep.server_cpu,
        shallow.server_cpu
    );
}

#[test]
fn replay_cache_stays_bounded_under_duplicate_storm() {
    // A client that never acks (or a fleet of them) must not grow the
    // server's at-most-once replay cache without bound: 10k distinct
    // mutation tokens from two workstations, each recorded twice (the
    // duplicate is the retry the cache exists to absorb).
    let mut srv = make_server(ValidationMode::CheckOnOpen);
    let reply = ViceReply::Ok;
    for token in 0..10_000u64 {
        let from = if token % 2 == 0 { WS } else { WS2 };
        srv.replay_record(from, token, reply.clone());
        srv.replay_record(from, token, reply.clone()); // duplicate record
        assert!(
            srv.replay_entries() <= 1024,
            "replay cache grew past its cap at token {token}: {}",
            srv.replay_entries()
        );
    }
    assert_eq!(srv.replay_entries(), 1024);
    // Eviction is oldest-first: the most recent tokens still answer,
    // the storm's earliest are gone.
    assert!(srv.replay_lookup(WS2, 9_999).is_some());
    assert!(srv.replay_lookup(WS, 9_998).is_some());
    assert!(srv.replay_lookup(WS, 0).is_none());
    assert!(srv.replay_lookup(WS2, 1).is_none());
    // A crash wipes the cache entirely (promises and replay state are
    // soft server state).
    srv.crash();
    assert_eq!(srv.replay_entries(), 0);
}
