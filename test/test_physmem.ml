(* Physical memory: allocator, paging queues, wiring, loans, data ops. *)

let mk ?(npages = 64) () =
  let clock = Sim.Simclock.create () in
  let stats = Sim.Stats.create () in
  let pm =
    Physmem.create ~page_size:256 ~npages ~clock ~costs:Sim.Cost_model.zero
      ~stats ()
  in
  (pm, clock, stats)

let test_boot_state () =
  let pm, _, _ = mk () in
  Alcotest.(check int) "all free" 64 (Physmem.free_count pm);
  Alcotest.(check int) "total" 64 (Physmem.total_pages pm);
  Alcotest.(check int) "page size" 256 (Physmem.page_size pm);
  Alcotest.(check int) "active empty" 0 (Physmem.active_count pm)

let test_alloc_free () =
  let pm, _, _ = mk () in
  let p = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:3 () in
  Alcotest.(check int) "free dropped" 63 (Physmem.free_count pm);
  Alcotest.(check bool) "not on queue" true (p.Physmem.Page.queue = Physmem.Page.Q_none);
  Alcotest.(check int) "offset recorded" 3 p.Physmem.Page.owner_offset;
  Physmem.free_page pm p;
  Alcotest.(check int) "free restored" 64 (Physmem.free_count pm);
  Alcotest.check_raises "double free"
    (Invalid_argument "Physmem.free_page: page already free") (fun () ->
      Physmem.free_page pm p)

let test_zero_alloc () =
  let pm, clock, stats = mk () in
  let p = Physmem.alloc pm ~zero:true ~owner:Physmem.Page.No_owner ~offset:0 () in
  Alcotest.(check bool) "zeroed" true
    (Bytes.for_all (fun c -> c = '\000') p.Physmem.Page.data);
  Alcotest.(check int) "zero counted" 1 stats.Sim.Stats.pages_zeroed;
  Alcotest.(check bool) "zero cost charged" true (Sim.Simclock.now clock = 0.0)

let test_queues () =
  let pm, _, _ = mk () in
  let p = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  Physmem.activate pm p;
  Alcotest.(check int) "active" 1 (Physmem.active_count pm);
  Physmem.deactivate pm p;
  Alcotest.(check int) "inactive" 1 (Physmem.inactive_count pm);
  Alcotest.(check int) "active empty" 0 (Physmem.active_count pm);
  Alcotest.(check bool) "ref cleared" false p.Physmem.Page.referenced;
  Physmem.dequeue pm p;
  Alcotest.(check int) "dequeued" 0 (Physmem.inactive_count pm);
  Physmem.free_page pm p

let test_wire_keeps_off_queues () =
  let pm, _, _ = mk () in
  let p = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  Physmem.activate pm p;
  Physmem.wire pm p;
  Alcotest.(check int) "left queue when wired" 0 (Physmem.active_count pm);
  Physmem.activate pm p;
  Alcotest.(check int) "activate on wired is no-op" 0 (Physmem.active_count pm);
  Alcotest.check_raises "cannot free wired"
    (Invalid_argument "Physmem.free_page: page is wired") (fun () ->
      Physmem.free_page pm p);
  Physmem.unwire pm p;
  Alcotest.(check int) "back on active" 1 (Physmem.active_count pm);
  Alcotest.check_raises "unwire unwired"
    (Invalid_argument "Physmem.unwire: page not wired") (fun () ->
      Physmem.unwire pm p)

let test_loaned_free_defers () =
  let pm, _, _ = mk () in
  let p = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  p.Physmem.Page.loan_count <- 1;
  Physmem.free_page pm p;
  Alcotest.(check int) "frame not freed while loaned" 63 (Physmem.free_count pm);
  Alcotest.(check bool) "ownership dropped" true
    (p.Physmem.Page.owner = Physmem.Page.No_owner);
  Physmem.release_loan pm p;
  Alcotest.(check int) "freed when last loan ends" 64 (Physmem.free_count pm)

let test_pagedaemon_invoked () =
  let pm, _, _ = mk ~npages:32 () in
  let calls = ref 0 in
  let stash = ref [] in
  Physmem.set_pagedaemon pm (fun () ->
      incr calls;
      (* Free one stashed page to make progress, but only a few times so
         the allocation loop below terminates. *)
      if !calls <= 3 then
        match !stash with
        | p :: rest ->
            stash := rest;
            Physmem.free_page pm p
        | [] -> ());
  (* Exhaust memory. *)
  (try
     while true do
       stash := Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () :: !stash
     done
   with Physmem.Out_of_pages -> ());
  Alcotest.(check bool) "daemon ran" true (!calls > 0)

let test_out_of_pages () =
  let pm, _, _ = mk ~npages:16 () in
  let reserve = Physmem.reserve pm in
  Alcotest.(check bool) "reserve is sane" true (reserve > 0 && reserve < 16);
  let all = ref [] in
  (* Ordinary allocations stop above the reserve... *)
  (try
     for _ = 1 to 17 do
       all := Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () :: !all
     done;
     Alcotest.fail "expected Out_of_pages"
   with Physmem.Out_of_pages -> ());
  Alcotest.(check int) "stopped above the reserve" (16 - reserve)
    (List.length !all);
  (* ...and privileged (memory-making) allocations drain it to zero. *)
  (try
     for _ = 1 to reserve + 1 do
       all :=
         Physmem.alloc pm ~privileged:true ~owner:Physmem.Page.No_owner
           ~offset:0 ()
         :: !all
     done;
     Alcotest.fail "expected Out_of_pages"
   with Physmem.Out_of_pages -> ());
  Alcotest.(check int) "privileged got the reserve" 16 (List.length !all);
  Alcotest.(check int) "empty" 0 (Physmem.free_count pm)

let test_copy_and_zero_data () =
  let pm, _, stats = mk () in
  let a = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  let b = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  Bytes.fill a.Physmem.Page.data 0 256 'x';
  Physmem.copy_data pm ~src:a ~dst:b;
  Alcotest.(check bool) "copied" true (Bytes.equal a.Physmem.Page.data b.Physmem.Page.data);
  Alcotest.(check int) "copy counted" 1 stats.Sim.Stats.pages_copied;
  Physmem.zero_data pm b;
  Alcotest.(check bool) "zeroed" true
    (Bytes.for_all (fun c -> c = '\000') b.Physmem.Page.data)

(* Property: any interleaving of alloc/free/activate/deactivate keeps the
   free count consistent with the set of live pages. *)
let prop_accounting =
  QCheck.Test.make ~name:"free count accounting" ~count:100
    QCheck.(list (int_range 0 3))
    (fun ops ->
      let pm, _, _ = mk ~npages:32 () in
      let live = ref [] in
      List.iter
        (fun op ->
          match op with
          | 0 -> (
              match Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () with
              | p -> live := p :: !live
              | exception Physmem.Out_of_pages -> ())
          | 1 -> (
              match !live with
              | p :: rest ->
                  Physmem.free_page pm p;
                  live := rest
              | [] -> ())
          | 2 -> ( match !live with p :: _ -> Physmem.activate pm p | [] -> ())
          | _ -> (
              match !live with p :: _ -> Physmem.deactivate pm p | [] -> ()))
        ops;
      Physmem.free_count pm = 32 - List.length !live)

(* ---- In-place queue walks ------------------------------------------ *)

(* A machine with every color ring in use and per-CPU free caches, driven
   by a random op list. *)
let walk_machine ops =
  let clock = Sim.Simclock.create () in
  let pm =
    Physmem.create ~page_size:64 ~ncpus:3 ~npages:96 ~clock
      ~costs:Sim.Cost_model.zero ~stats:(Sim.Stats.create ()) ()
  in
  let live = ref [] in
  let pick i = List.nth !live (i mod List.length !live) in
  List.iter
    (fun (op, i) ->
      match op with
      | 0 | 1 -> (
          match Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () with
          | p -> live := p :: !live
          | exception Physmem.Out_of_pages -> ())
      | _ when !live = [] -> ()
      | 2 -> Physmem.activate pm (pick i)
      | 3 -> Physmem.deactivate pm (pick i)
      | 4 ->
          let p = pick i in
          live := List.filter (fun q -> q != p) !live;
          Physmem.free_page pm p
      | 5 -> Physmem.drain_caches pm
      | _ -> Physmem.set_current_cpu pm (i mod Physmem.ncpus pm))
    ops;
  pm

let walk_ops = QCheck.(list_of_size Gen.(20 -- 200) (pair (int_range 0 6) small_nat))
let queues = Physmem.Page.[ Q_free; Q_active; Q_inactive ]

(* The pages [walk] visits before [stop] says to end, in visit order. *)
let visits ?(stop = fun _ -> false) pm q =
  let seen = ref [] in
  Physmem.walk pm q (fun p ->
      seen := p :: !seen;
      not (stop (List.length !seen)));
  List.rev !seen

let ids = List.map (fun (p : Physmem.Page.t) -> p.Physmem.Page.id)
let take n = List.filteri (fun i _ -> i < n)

(* What a walk of [q] must visit: the ring pages in stamp order, then (on
   the free queue) the pages held by per-CPU caches. *)
let queued pm q =
  let ring = ref [] and cached = ref [] in
  Physmem.iter_pages
    (fun (p : Physmem.Page.t) ->
      if p.queue = q then
        if p.cached_cpu >= 0 then cached := p :: !cached else ring := p :: !ring)
    pm;
  ( List.sort
      (fun (a : Physmem.Page.t) (b : Physmem.Page.t) -> compare a.q_seq b.q_seq)
      !ring,
    !cached )

let prop_walk_order =
  QCheck.Test.make ~name:"walk visits the queue in stamp order" ~count:200
    walk_ops (fun ops ->
      let pm = walk_machine ops in
      List.for_all
        (fun q ->
          let ring, cached = queued pm q in
          let got = visits pm q in
          let nring = List.length ring in
          ids (take nring got) = ids ring
          && List.sort compare (ids (List.filteri (fun i _ -> i >= nring) got))
             = List.sort compare (ids cached))
        queues
      && List.length (visits pm Physmem.Page.Q_free) = Physmem.free_count pm)

let prop_walk_stop =
  QCheck.Test.make ~name:"stopped walk is a prefix" ~count:200
    QCheck.(pair walk_ops small_nat)
    (fun (ops, k) ->
      let pm = walk_machine ops in
      List.for_all
        (fun q ->
          let full = visits pm q in
          ids (visits ~stop:(fun n -> n >= k) pm q) = ids (take (max 1 k) full))
        queues)

(* The visitor moves or frees the page it is handed, and enqueues fresh
   pages onto the walked queue: the walk still visits exactly the pages
   queued when it began, in order, each once — a newcomer (even a frame
   freed earlier in the walk and reused) is not visited. *)
let prop_walk_mutating_visitor =
  QCheck.Test.make ~name:"visitor may move its page; newcomers unseen"
    ~count:200
    QCheck.(pair walk_ops (list_of_size Gen.(0 -- 100) (int_range 0 3)))
    (fun (ops, acts) ->
      let pm = walk_machine ops in
      List.for_all
        (fun q ->
          let before, _ = queued pm q in
          let acts = ref acts in
          let got = ref [] in
          Physmem.walk pm q (fun p ->
              got := p :: !got;
              (match !acts with
              | [] -> ()
              | a :: rest -> (
                  acts := rest;
                  match a with
                  | 0 -> Physmem.activate pm p
                  | 1 -> Physmem.deactivate pm p
                  | 2 -> Physmem.free_page pm p
                  | _ -> (
                      match
                        Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 ()
                      with
                      | n ->
                          if q = Physmem.Page.Q_active then Physmem.activate pm n
                          else Physmem.deactivate pm n
                      | exception Physmem.Out_of_pages -> ())));
              true);
          ids (List.rev !got) = ids before)
        Physmem.Page.[ Q_active; Q_inactive ])

let test_walk_rejects_unlink_ahead () =
  let pm, _, _ = mk () in
  let a = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  let b = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  Physmem.activate pm a;
  Physmem.activate pm b;
  Alcotest.check_raises "page ahead of the walk moved"
    (Invalid_argument "Physmem.walk: a page ahead of the walk left its queue")
    (fun () ->
      Physmem.walk pm Physmem.Page.Q_active (fun _ ->
          Physmem.deactivate pm b;
          true));
  Alcotest.check_raises "Q_none is no queue"
    (Invalid_argument "Physmem.walk: Q_none is not a queue") (fun () ->
      Physmem.walk pm Physmem.Page.Q_none (fun _ -> true))

let () =
  Alcotest.run "physmem"
    [
      ( "allocator",
        [
          Alcotest.test_case "boot state" `Quick test_boot_state;
          Alcotest.test_case "alloc/free" `Quick test_alloc_free;
          Alcotest.test_case "zero alloc" `Quick test_zero_alloc;
          Alcotest.test_case "out of pages" `Quick test_out_of_pages;
          QCheck_alcotest.to_alcotest prop_accounting;
        ] );
      ( "queues",
        [
          Alcotest.test_case "transitions" `Quick test_queues;
          Alcotest.test_case "wire" `Quick test_wire_keeps_off_queues;
          Alcotest.test_case "walk rejects unlink ahead" `Quick
            test_walk_rejects_unlink_ahead;
          QCheck_alcotest.to_alcotest prop_walk_order;
          QCheck_alcotest.to_alcotest prop_walk_stop;
          QCheck_alcotest.to_alcotest prop_walk_mutating_visitor;
        ] );
      ( "loans",
        [ Alcotest.test_case "deferred free" `Quick test_loaned_free_defers ] );
      ( "pagedaemon",
        [ Alcotest.test_case "invoked on pressure" `Quick test_pagedaemon_invoked ]
      );
      ( "data",
        [ Alcotest.test_case "copy and zero" `Quick test_copy_and_zero_data ] );
    ]
