//! Property tests for name resolution: canonical identity is stable under
//! aliasing, and resolution is idempotent.

use proptest::prelude::*;
use shadow_proto::DomainId;
use shadow_vfs::{VPath, Vfs};

fn arb_segment() -> impl Strategy<Value = String> {
    "[a-d]{1,3}".prop_map(|s| s)
}

fn arb_abs_path() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_segment(), 1..4).prop_map(|segs| format!("/{}", segs.join("/")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn vpath_parse_display_round_trips(path in arb_abs_path()) {
        let p = VPath::parse(&path).unwrap();
        let again = VPath::parse(&p.to_string()).unwrap();
        prop_assert_eq!(p, again);
    }

    #[test]
    fn vpath_normalization_is_idempotent(raw in "(/([a-c.]{1,3}))*/?") {
        let raw = if raw.starts_with('/') { raw } else { format!("/{raw}") };
        if let Ok(p) = VPath::parse(&raw) {
            prop_assert_eq!(VPath::parse(&p.to_string()).unwrap(), p);
        }
    }

    #[test]
    fn resolution_is_idempotent(
        path in arb_abs_path(),
        content in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut vfs = Vfs::new(DomainId::new(1));
        vfs.add_host("h").unwrap();
        if let Some(parent) = VPath::parse(&path).unwrap().parent() {
            vfs.mkdir_p("h", &parent.to_string()).unwrap();
        }
        // Creating the file may fail if a prefix got created as a file by
        // an earlier segment name collision — skip those cases.
        if vfs.write_file("h", &path, content.clone()).is_ok() {
            let first = vfs.resolve("h", &path).unwrap();
            // Resolving the canonical name again yields itself.
            let again = vfs.resolve(first.host.as_str(), &first.path.to_string()).unwrap();
            prop_assert_eq!(first, again);
            prop_assert_eq!(vfs.read_file("h", &path).unwrap(), content);
        }
    }

    #[test]
    fn mounted_and_direct_views_always_agree(
        rel in arb_segment(),
        content in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut vfs = Vfs::new(DomainId::new(1));
        vfs.add_host("server").unwrap();
        vfs.add_host("ws1").unwrap();
        vfs.add_host("ws2").unwrap();
        vfs.mkdir_p("server", "/export").unwrap();
        vfs.mount("ws1", "/n1", "server", "/export").unwrap();
        vfs.mount("ws2", "/deeply/nested/n2", "server", "/export").unwrap();

        let direct = format!("/export/{rel}");
        let via1 = format!("/n1/{rel}");
        let via2 = format!("/deeply/nested/n2/{rel}");
        vfs.write_file("ws1", &via1, content.clone()).unwrap();

        let a = vfs.resolve("server", &direct).unwrap();
        let b = vfs.resolve("ws1", &via1).unwrap();
        let c = vfs.resolve("ws2", &via2).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
        prop_assert_eq!(vfs.read_file("ws2", &via2).unwrap(), content);
    }

    #[test]
    fn symlink_alias_never_changes_identity(
        target_name in arb_segment(),
        link_name in arb_segment(),
        content in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        prop_assume!(target_name != link_name);
        let mut vfs = Vfs::new(DomainId::new(1));
        vfs.add_host("h").unwrap();
        let target = format!("/{target_name}");
        let link = format!("/{link_name}");
        vfs.write_file("h", &target, content).unwrap();
        vfs.symlink("h", &link, &target).unwrap();
        prop_assert_eq!(
            vfs.resolve("h", &link).unwrap(),
            vfs.resolve("h", &target).unwrap()
        );
    }
}
