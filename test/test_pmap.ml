(* The pmap layer: translations, protections, pv (reverse) mappings. *)

let mk () =
  let clock = Sim.Simclock.create () in
  let stats = Sim.Stats.create () in
  let pm =
    Physmem.create ~page_size:256 ~npages:32 ~clock ~costs:Sim.Cost_model.zero
      ~stats ()
  in
  let ctx =
    Pmap.create_ctx ~npages:32 ~clock ~costs:Sim.Cost_model.zero ~stats ()
  in
  (pm, ctx)

let page pm = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 ()

let test_prot_algebra () =
  Alcotest.(check bool) "rw subsumes r" true
    (Pmap.Prot.subsumes Pmap.Prot.rw Pmap.Prot.read);
  Alcotest.(check bool) "r does not subsume rw" false
    (Pmap.Prot.subsumes Pmap.Prot.read Pmap.Prot.rw);
  Alcotest.(check bool) "none subsumes none" true
    (Pmap.Prot.subsumes Pmap.Prot.none Pmap.Prot.none);
  Alcotest.(check string) "to_string" "rw-" (Pmap.Prot.to_string Pmap.Prot.rw);
  Alcotest.(check bool) "remove_write" true
    (Pmap.Prot.equal (Pmap.Prot.remove_write Pmap.Prot.rwx) Pmap.Prot.rx);
  Alcotest.(check bool) "intersect" true
    (Pmap.Prot.equal (Pmap.Prot.intersect Pmap.Prot.rw Pmap.Prot.rx) Pmap.Prot.read)

let test_enter_lookup_remove () =
  let pm, ctx = mk () in
  let map = Pmap.create ctx in
  let p = page pm in
  Pmap.enter map ~vpn:100 ~page:p ~prot:Pmap.Prot.rw ~wired:false;
  (match Pmap.lookup map ~vpn:100 with
  | Some pte ->
      Alcotest.(check bool) "same page" true (pte.Pmap.page == p);
      Alcotest.(check bool) "prot" true (Pmap.Prot.equal pte.Pmap.prot Pmap.Prot.rw)
  | None -> Alcotest.fail "no translation");
  Alcotest.(check int) "resident" 1 (Pmap.resident_count map);
  Pmap.remove_one map ~vpn:100;
  Alcotest.(check bool) "gone" true (Pmap.lookup map ~vpn:100 = None);
  Alcotest.(check (list pass)) "pv empty" []
    (List.map (fun _ -> ()) (Pmap.mappings_of_page ctx p))

let test_replace_translation () =
  let pm, ctx = mk () in
  let map = Pmap.create ctx in
  let p1 = page pm and p2 = page pm in
  Pmap.enter map ~vpn:5 ~page:p1 ~prot:Pmap.Prot.read ~wired:false;
  Pmap.enter map ~vpn:5 ~page:p2 ~prot:Pmap.Prot.rw ~wired:false;
  (match Pmap.lookup map ~vpn:5 with
  | Some pte -> Alcotest.(check bool) "replaced" true (pte.Pmap.page == p2)
  | None -> Alcotest.fail "missing");
  Alcotest.(check int) "old pv gone" 0 (List.length (Pmap.mappings_of_page ctx p1));
  Alcotest.(check int) "new pv present" 1 (List.length (Pmap.mappings_of_page ctx p2))

let test_range_ops () =
  let pm, ctx = mk () in
  let map = Pmap.create ctx in
  for v = 10 to 19 do
    Pmap.enter map ~vpn:v ~page:(page pm) ~prot:Pmap.Prot.rw ~wired:false
  done;
  Pmap.protect_range map ~lo:12 ~hi:15 ~prot:Pmap.Prot.read;
  (match Pmap.lookup map ~vpn:13 with
  | Some pte -> Alcotest.(check bool) "downgraded" true (Pmap.Prot.equal pte.Pmap.prot Pmap.Prot.read)
  | None -> Alcotest.fail "missing");
  (match Pmap.lookup map ~vpn:16 with
  | Some pte -> Alcotest.(check bool) "untouched" true (Pmap.Prot.equal pte.Pmap.prot Pmap.Prot.rw)
  | None -> Alcotest.fail "missing");
  Pmap.remove_range map ~lo:10 ~hi:15;
  Alcotest.(check int) "half removed" 5 (Pmap.resident_count map);
  Pmap.restrict_range map ~lo:15 ~hi:20 ~prot:Pmap.Prot.rx;
  (match Pmap.lookup map ~vpn:17 with
  | Some pte ->
      Alcotest.(check bool) "restricted to r-x intersect rw- = r--" true
        (Pmap.Prot.equal pte.Pmap.prot Pmap.Prot.read)
  | None -> Alcotest.fail "missing")

let test_page_wide_ops () =
  let pm, ctx = mk () in
  let m1 = Pmap.create ctx and m2 = Pmap.create ctx in
  let p = page pm in
  Pmap.enter m1 ~vpn:1 ~page:p ~prot:Pmap.Prot.rw ~wired:false;
  Pmap.enter m2 ~vpn:9 ~page:p ~prot:Pmap.Prot.rw ~wired:false;
  Alcotest.(check int) "pv has both" 2 (List.length (Pmap.mappings_of_page ctx p));
  Pmap.page_protect_all ctx p ~prot:(Pmap.Prot.remove_write Pmap.Prot.rwx);
  let check_ro m vpn =
    match Pmap.lookup m ~vpn with
    | Some pte -> Alcotest.(check bool) "write revoked" false pte.Pmap.prot.Pmap.Prot.w
    | None -> Alcotest.fail "missing"
  in
  check_ro m1 1;
  check_ro m2 9;
  Pmap.page_remove_all ctx p;
  Alcotest.(check bool) "all gone" true
    (Pmap.lookup m1 ~vpn:1 = None && Pmap.lookup m2 ~vpn:9 = None)

let test_mark_access () =
  let pm, ctx = mk () in
  let map = Pmap.create ctx in
  let p = page pm in
  Pmap.enter map ~vpn:4 ~page:p ~prot:Pmap.Prot.rw ~wired:false;
  Alcotest.(check bool) "initially unreferenced" false (Pmap.is_referenced p);
  Pmap.mark_access map ~vpn:4 ~write:false;
  Alcotest.(check bool) "referenced" true (Pmap.is_referenced p);
  Alcotest.(check bool) "clean" false p.Physmem.Page.dirty;
  Pmap.mark_access map ~vpn:4 ~write:true;
  Alcotest.(check bool) "dirty" true p.Physmem.Page.dirty;
  Pmap.clear_reference ctx p;
  Alcotest.(check bool) "cleared" false (Pmap.is_referenced p)

let test_destroy () =
  let pm, ctx = mk () in
  let map = Pmap.create ctx in
  let pages = List.init 5 (fun i ->
      let p = page pm in
      Pmap.enter map ~vpn:i ~page:p ~prot:Pmap.Prot.rw ~wired:false;
      p)
  in
  Pmap.destroy map;
  Alcotest.(check int) "nothing resident" 0 (Pmap.resident_count map);
  List.iter
    (fun p ->
      Alcotest.(check int) "pv cleaned" 0
        (List.length (Pmap.mappings_of_page ctx p)))
    pages

(* Property: pv lists always agree with the pmap tables. *)
let prop_pv_consistent =
  QCheck.Test.make ~name:"pv lists consistent" ~count:100
    QCheck.(list (pair (int_range 0 2) (int_range 0 7)))
    (fun ops ->
      let pm, ctx = mk () in
      let map = Pmap.create ctx in
      let pages = Array.init 8 (fun _ -> page pm) in
      List.iter
        (fun (op, i) ->
          match op with
          | 0 -> Pmap.enter map ~vpn:i ~page:pages.(i) ~prot:Pmap.Prot.rw ~wired:false
          | 1 -> Pmap.remove_one map ~vpn:i
          | _ -> Pmap.page_remove_all ctx pages.(i))
        ops;
      Array.for_all
        (fun p ->
          List.for_all
            (fun (m, vpn) ->
              match Pmap.lookup m ~vpn with
              | Some pte -> pte.Pmap.page == p
              | None -> false)
            (Pmap.mappings_of_page ctx p))
        pages
      && Pmap.resident_count map
         = (Array.to_list pages
           |> List.concat_map (fun p -> Pmap.mappings_of_page ctx p)
           |> List.length))

let () =
  Alcotest.run "pmap"
    [
      ("prot", [ Alcotest.test_case "algebra" `Quick test_prot_algebra ]);
      ( "translations",
        [
          Alcotest.test_case "enter/lookup/remove" `Quick test_enter_lookup_remove;
          Alcotest.test_case "replace" `Quick test_replace_translation;
          Alcotest.test_case "range ops" `Quick test_range_ops;
          Alcotest.test_case "destroy" `Quick test_destroy;
        ] );
      ( "pv",
        [
          Alcotest.test_case "page-wide ops" `Quick test_page_wide_ops;
          QCheck_alcotest.to_alcotest prop_pv_consistent;
        ] );
      ( "refmod",
        [ Alcotest.test_case "mark access" `Quick test_mark_access ] );
    ]
