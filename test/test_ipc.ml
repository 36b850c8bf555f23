(* The IPC subsystem (pipes/sockets over mbuf chains, paper §6-§7):
   policy equivalence across Copy/Loan/Mexp and across kernels, COW on
   write-after-send, pageout of staged pages mid-transfer, mapped
   delivery, the vslock'd physio path, and the loan-count census. *)

module Vt = Vmiface.Vmtypes
module M = Vmiface.Machine

let ps = 4096

(* A deterministic chunked transfer through one pipe, identical for any
   VM system and policy; returns a transcript of accepted/received
   counts plus every delivered byte.  Audits after every syscall, so an
   IPC path that corrupts VM state fails loudly here. *)
module Stream (V : Vmiface.Vm_sig.VM_SYS) = struct
  module I = Ipc.Make (V)

  let pattern n = Bytes.init n (fun i -> Char.chr ((i * 7 + 13) land 0xff))

  let run ~policy ?cap_bytes ?(vslocked = false) () =
    let config = { M.default_config with ram_pages = 512; swap_pages = 1024 } in
    let sys = V.boot ~config () in
    let tx = V.new_vmspace sys and rx = V.new_vmspace sys in
    let src =
      V.mmap sys tx ~npages:8 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero
    in
    let dst =
      V.mmap sys rx ~npages:8 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero
    in
    let src_addr = src * ps and dst_addr = dst * ps in
    V.write_bytes sys tx ~addr:src_addr (pattern (8 * ps));
    let ch = I.pipe sys ?cap_bytes () in
    let out = Buffer.create 1024 in
    let sends =
      (* Unaligned, page-aligned and multi-page payloads. *)
      [ (0, 300); (300, 4096); (4396, 33); (8192, 4096); (12288, 8192); (20480, 1) ]
    in
    List.iter
      (fun (off, len) ->
        let sent =
          I.send sys tx ~vslocked ch ~policy ~addr:(src_addr + off) ~len
        in
        V.audit sys;
        let rec drain () =
          match I.recv sys rx ~vslocked ch ~addr:dst_addr ~len:(8 * ps) with
          | I.Data 0 -> ()
          | I.Data n ->
              Buffer.add_bytes out (V.read_bytes sys rx ~addr:dst_addr ~len:n);
              drain ()
          | I.Mapped _ -> assert false
        in
        drain ();
        V.audit sys;
        Buffer.add_string out (Printf.sprintf "|sent=%d|" sent))
      sends;
    I.close sys ch;
    V.audit sys;
    Buffer.contents out

  (* The channel lock is released on every exit.  With tracing on, so
     the registry records, a send from and a recv into an unmapped buffer
     raise [Segv] from inside the locked section, plain and vslock'd, and
     leave no lock held; the channel keeps working afterwards.  A
     vslock'd recv into a read-only buffer wires it, then faults on the
     copy-out: the buffer is unwired again on the way out. *)
  let segv_releases_lock () =
    let config =
      { M.default_config with ram_pages = 512; swap_pages = 1024; trace_buf = Some 256 }
    in
    let sys = V.boot ~config () in
    let locks = (V.machine sys).M.locks in
    let tx = V.new_vmspace sys and rx = V.new_vmspace sys in
    let src = V.mmap sys tx ~npages:2 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
    let dst = V.mmap sys rx ~npages:2 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
    V.munmap sys tx ~vpn:(src + 1) ~npages:1;
    V.munmap sys rx ~vpn:(dst + 1) ~npages:1;
    V.write_bytes sys tx ~addr:(src * ps) (pattern 300);
    let ch = I.pipe sys () in
    let segv f =
      match f () with _ -> false | exception Vt.Segv _ -> true
    in
    let no_lock_held what =
      Alcotest.(check (list (pair string string)))
        (what ^ ": no lock held") [] (Sim.Lockstat.held locks)
    in
    Alcotest.(check bool) "lock registry recording" true
      (Sim.Lockstat.active locks);
    List.iter
      (fun vslocked ->
        let tag = if vslocked then "vslock'd " else "" in
        Alcotest.(check bool) (tag ^ "send faults") true
          (segv (fun () ->
               I.send sys tx ~vslocked ch ~policy:Ipc.Copy
                 ~addr:((src + 1) * ps) ~len:100));
        no_lock_held (tag ^ "send");
        Alcotest.(check int) (tag ^ "send after the fault") 100
          (I.send sys tx ~vslocked ch ~policy:Ipc.Copy ~addr:(src * ps)
             ~len:100);
        Alcotest.(check bool) (tag ^ "recv faults") true
          (segv (fun () ->
               I.recv sys rx ~vslocked ch ~addr:((dst + 1) * ps) ~len:100));
        no_lock_held (tag ^ "recv"))
      [ false; true ];
    let ro = V.mmap sys rx ~npages:1 ~prot:Pmap.Prot.read ~share:Vt.Private Vt.Zero in
    let wired_frames () =
      let n = ref 0 in
      Physmem.iter_pages
        (fun p -> if p.Physmem.Page.wire_count > 0 then incr n)
        (V.machine sys).M.physmem;
      !n
    in
    let wired = wired_frames () in
    ignore (I.send sys tx ch ~policy:Ipc.Copy ~addr:(src * ps) ~len:100 : int);
    Alcotest.(check bool) "vslock'd recv into a read-only buffer faults" true
      (segv (fun () ->
           I.recv sys rx ~vslocked:true ch ~addr:(ro * ps) ~len:100));
    no_lock_held "read-only recv";
    Alcotest.(check int) "buffer unwired" wired (wired_frames ());
    ignore (I.send sys tx ch ~policy:Ipc.Copy ~addr:(src * ps) ~len:100 : int);
    (match I.recv sys rx ch ~addr:(dst * ps) ~len:100 with
    | I.Data n -> Alcotest.(check int) "recv after the faults" 100 n
    | I.Mapped _ -> Alcotest.fail "unexpected mapped delivery");
    no_lock_held "end";
    V.audit sys

  (* A receive whose copy-out faults consumes nothing: the queue keeps its
     length, and the next receive returns the same bytes.  Covered for a
     receive the head segment holds and for one that spans two segments,
     plain and vslock'd, under each policy. *)
  let faulting_recv_keeps_payload () =
    let config = { M.default_config with ram_pages = 512; swap_pages = 1024 } in
    let sys = V.boot ~config () in
    let tx = V.new_vmspace sys and rx = V.new_vmspace sys in
    let mmap vm prot = V.mmap sys vm ~npages:2 ~prot ~share:Vt.Private Vt.Zero in
    let src = mmap tx Pmap.Prot.rw and dst = mmap rx Pmap.Prot.rw in
    let ro = mmap rx Pmap.Prot.read in
    let data = pattern (2 * ps) in
    V.write_bytes sys tx ~addr:(src * ps) data;
    let ch = I.pipe sys () in
    List.iter
      (fun (policy, vslocked, sends) ->
        let tag =
          Printf.sprintf "%s%s, %d segment(s)"
            (if vslocked then "vslock'd " else "")
            (Ipc.policy_name policy) (List.length sends)
        in
        List.iter
          (fun (off, len) ->
            ignore
              (I.send sys tx ch ~policy ~addr:((src * ps) + off) ~len : int))
          sends;
        let queued = I.queued_bytes ch in
        Alcotest.(check bool) (tag ^ ": recv faults") true
          (match I.recv sys rx ~vslocked ch ~addr:(ro * ps) ~len:queued with
          | _ -> false
          | exception Vt.Segv _ -> true);
        Alcotest.(check int) (tag ^ ": queue unchanged") queued
          (I.queued_bytes ch);
        (match I.recv sys rx ~vslocked ch ~addr:(dst * ps) ~len:queued with
        | I.Data n ->
            Alcotest.(check int) (tag ^ ": bytes received") queued n;
            Alcotest.(check string) (tag ^ ": same bytes")
              (String.concat ""
                 (List.map (fun (off, len) -> Bytes.sub_string data off len) sends))
              (Bytes.to_string (V.read_bytes sys rx ~addr:(dst * ps) ~len:n))
        | I.Mapped _ -> Alcotest.fail "unexpected mapped delivery");
        Alcotest.(check int) (tag ^ ": drained") 0 (I.queued_bytes ch);
        V.audit sys)
      (List.concat_map
         (fun policy ->
           List.concat_map
             (fun vslocked ->
               [
                 (policy, vslocked, [ (0, 300) ]);
                 (policy, vslocked, [ (0, 300); (300, ps) ]);
               ])
             [ false; true ])
         [ Ipc.Copy; Ipc.Loan ])
end

module SU = Stream (Uvm.Sys)
module SB = Stream (Bsdvm.Sys)

let test_policy_equivalence () =
  let reference = SB.run ~policy:Ipc.Copy () in
  List.iter
    (fun policy ->
      Alcotest.(check string)
        (Printf.sprintf "UVM %s stream" (Ipc.policy_name policy))
        reference
        (SU.run ~policy ());
      Alcotest.(check string)
        (Printf.sprintf "BSD %s stream (degrades to copy)"
           (Ipc.policy_name policy))
        reference
        (SB.run ~policy ()))
    Ipc.all_policies

let test_backpressure_policy_independent () =
  (* Acceptance is capacity-driven only, so a tiny socket buffer yields
     the same accepted counts for every policy on every kernel. *)
  let reference = SB.run ~policy:Ipc.Copy ~cap_bytes:1000 () in
  List.iter
    (fun policy ->
      Alcotest.(check string)
        (Printf.sprintf "capped UVM %s stream" (Ipc.policy_name policy))
        reference
        (SU.run ~policy ~cap_bytes:1000 ()))
    Ipc.all_policies

let test_vslocked_stream () =
  let reference = SB.run ~policy:Ipc.Copy () in
  Alcotest.(check string)
    "vslock'd UVM loan stream" reference
    (SU.run ~policy:Ipc.Loan ~vslocked:true ());
  Alcotest.(check string)
    "vslock'd BSD copy stream" reference
    (SB.run ~policy:Ipc.Copy ~vslocked:true ())

(* -- a byte-queue model ---------------------------------------------------- *)

(* Random traffic through one pipe, checked against a model that is just
   the queued bytes as a string.  Sends mix the policies and take
   unaligned or page-aligned ranges (mexp stages whole pages only); the
   sender may scribble over its buffer after a send, which the queued
   bytes must not see.  Receives take part of the queue at unaligned
   destinations, with or without mapped delivery and vslock, and some go
   into a buffer with an unmapped middle page: one that reaches the hole
   raises [Segv] and leaves the queue as it was. *)
type model_op =
  | Send of { off : int; len : int; pol : int; vsl : bool }
  | Scribble of { off : int; len : int; seed : int }
  | Recv of { off : int; len : int; mapped : bool; vsl : bool }
  | Recv_holey of { off : int; len : int; vsl : bool }

let show_model_op = function
  | Send { off; len; pol; vsl } ->
      Printf.sprintf "send %d+%d %s%s" off len
        (Ipc.policy_name (List.nth Ipc.all_policies pol))
        (if vsl then " vsl" else "")
  | Scribble { off; len; seed } -> Printf.sprintf "scribble %d+%d #%d" off len seed
  | Recv { off; len; mapped; vsl } ->
      Printf.sprintf "recv %d+%d%s%s" off len
        (if mapped then " mapped" else "")
        (if vsl then " vsl" else "")
  | Recv_holey { off; len; vsl } ->
      Printf.sprintf "recv-holey %d+%d%s" off len (if vsl then " vsl" else "")

let model_src_pages = 8
let model_cap = (3 * ps) + 123

let gen_model_op =
  let open QCheck.Gen in
  let bool = map (fun n -> n = 0) (int_bound 3) in
  let range ~pages =
    (* Page-aligned half of the time, so mexp stages. *)
    frequency
      [
        ( 1,
          map2
            (fun p n -> (p * ps, n * ps))
            (int_bound (pages - 3))
            (int_range 1 2) );
        ( 1,
          map2
            (fun off len -> (off, len))
            (int_bound ((pages - 3) * ps))
            (int_range 1 (2 * ps)) );
      ]
  in
  frequency
    [
      ( 5,
        map3
          (fun (off, len) pol vsl -> Send { off; len; pol; vsl })
          (range ~pages:model_src_pages)
          (int_bound (List.length Ipc.all_policies - 1))
          bool );
      ( 1,
        map2
          (fun (off, len) seed -> Scribble { off; len; seed })
          (range ~pages:model_src_pages) (int_bound 255) );
      ( 3,
        map3
          (fun off len (mapped, vsl) -> Recv { off; len; mapped; vsl })
          (int_bound (4 * ps))
          (int_range 1 (2 * ps))
          (pair QCheck.Gen.bool bool) );
      ( 1,
        map3
          (fun off len vsl -> Recv_holey { off; len; vsl })
          (int_range 1 (ps - 1))
          (int_range 1 (3 * ps))
          bool );
    ]

let arb_model_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_model_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 40) gen_model_op)

module Model (V : Vmiface.Vm_sig.VM_SYS) = struct
  module I = Ipc.Make (V)

  let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) V.name

  let run ops =
    let config = { M.default_config with ram_pages = 512; swap_pages = 1024 } in
    let sys = V.boot ~config () in
    let tx = V.new_vmspace sys and rx = V.new_vmspace sys in
    let mmap vm npages =
      V.mmap sys vm ~npages ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero
    in
    let src = mmap tx model_src_pages * ps in
    let dst = mmap rx 8 * ps in
    let holey = mmap rx 3 in
    V.munmap sys rx ~vpn:(holey + 1) ~npages:1;
    let bytes ~seed n = Bytes.init n (fun i -> Char.chr ((seed + (i * 31)) land 0xff)) in
    V.write_bytes sys tx ~addr:src (bytes ~seed:7 (model_src_pages * ps));
    let ch = I.pipe sys ~cap_bytes:model_cap () in
    let model = ref "" in
    let check_received what ~addr n =
      let want = String.sub !model 0 n in
      let got = Bytes.to_string (V.read_bytes sys rx ~addr ~len:n) in
      if got <> want then fail "%s: received bytes differ from the model" what;
      model := String.sub !model n (String.length !model - n)
    in
    List.iter
      (fun op ->
        let what = show_model_op op in
        (match op with
        | Send { off; len; pol; vsl } ->
            let policy = List.nth Ipc.all_policies pol in
            let payload = V.read_bytes sys tx ~addr:(src + off) ~len in
            let n = I.send sys tx ~vslocked:vsl ch ~policy ~addr:(src + off) ~len in
            let want = min len (model_cap - String.length !model) in
            if n <> want then fail "%s: accepted %d, want %d" what n want;
            model := !model ^ Bytes.sub_string payload 0 n
        | Scribble { off; len; seed } ->
            V.write_bytes sys tx ~addr:(src + off) (bytes ~seed len)
        | Recv { off; len; mapped; vsl } -> (
            let expect = min len (String.length !model) in
            match
              I.recv sys rx ~vslocked:vsl ~accept_mapped:mapped ch
                ~addr:(dst + off) ~len
            with
            | I.Data n ->
                if n <> expect then fail "%s: received %d, want %d" what n expect;
                check_received what ~addr:(dst + off) n
            | I.Mapped { vpn; npages; len = n } ->
                if not mapped then fail "%s: unrequested mapped delivery" what;
                if n > expect then fail "%s: mapped %d of %d bytes" what n expect;
                check_received what ~addr:(vpn * ps) n;
                V.munmap sys rx ~vpn ~npages)
        | Recv_holey { off; len; vsl } -> (
            let queued = I.queued_bytes ch in
            let expect = min len (String.length !model) in
            let addr = (holey * ps) + off in
            (* An empty queue touches nothing; a vslock'd receive wires
               the whole buffer, a plain one writes what it takes. *)
            let reaches_hole =
              expect > 0 && off + (if vsl then len else expect) > ps
            in
            match I.recv sys rx ~vslocked:vsl ch ~addr ~len with
            | I.Data n ->
                if reaches_hole then
                  fail "%s: a receive across the hole returned" what;
                if n <> expect then fail "%s: received %d, want %d" what n expect;
                check_received what ~addr n
            | I.Mapped _ -> fail "%s: unrequested mapped delivery" what
            | exception Vt.Segv _ ->
                if not reaches_hole then
                  fail "%s: Segv without reaching the hole" what;
                if I.queued_bytes ch <> queued then
                  fail "%s: a faulting receive consumed bytes" what));
        let q = I.queued_bytes ch in
        if q <> I.held_bytes ch then
          fail "%s: queued_bytes %d, segments hold %d" what q (I.held_bytes ch);
        if q <> String.length !model then
          fail "%s: queued_bytes %d, model %d" what q (String.length !model))
      ops;
    I.close sys ch;
    V.audit sys;
    true
end

module MU = Model (Uvm.Sys)
module MB = Model (Bsdvm.Sys)

let prop_byte_queue_model =
  QCheck.Test.make ~name:"pipe traffic matches a byte-queue model" ~count:150
    arb_model_ops
    (fun ops -> MU.run ops && MB.run ops)

(* -- UVM-specific mechanics --------------------------------------------- *)

module S = Uvm.Sys
module IU = Ipc.Make (Uvm.Sys)

let mk ?(ram_pages = 512) () =
  let config = { M.default_config with ram_pages; swap_pages = 1024 } in
  let sys = S.boot ~config () in
  (sys, S.new_vmspace sys, S.new_vmspace sys)

let stats sys = (S.machine sys).M.stats

let test_vslock_counted () =
  let sys, tx, rx = mk () in
  let src = S.mmap sys tx ~npages:1 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  let dst = S.mmap sys rx ~npages:1 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  S.write_bytes sys tx ~addr:(src * ps) (Bytes.of_string "physio");
  let ch = IU.pipe sys () in
  ignore (IU.send sys tx ~vslocked:true ch ~policy:Ipc.Loan ~addr:(src * ps) ~len:6);
  ignore (IU.recv sys rx ~vslocked:true ch ~addr:(dst * ps) ~len:6);
  Alcotest.(check int) "two vslock'd transfers" 2 (stats sys).Sim.Stats.vslock_ios;
  Alcotest.(check string) "payload" "physio"
    (Bytes.to_string (S.read_bytes sys rx ~addr:(dst * ps) ~len:6));
  IU.close sys ch

let test_cow_write_after_send () =
  let sys, tx, rx = mk () in
  let src = S.mmap sys tx ~npages:1 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  let dst = S.mmap sys rx ~npages:1 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  S.write_bytes sys tx ~addr:(src * ps) (Bytes.of_string "original");
  let ch = IU.pipe sys () in
  let sent = IU.send sys tx ch ~policy:Ipc.Loan ~addr:(src * ps) ~len:8 in
  Alcotest.(check int) "accepted" 8 sent;
  Alcotest.(check bool) "bytes moved by loan, not copy" true
    ((stats sys).Sim.Stats.ipc_bytes_loaned = 8);
  (* The sender scribbles after send: the queued data must be the
     pre-write snapshot (COW broke the loan). *)
  S.write_bytes sys tx ~addr:(src * ps) (Bytes.of_string "SCRIBBLE");
  S.audit sys;
  (match IU.recv sys rx ch ~addr:(dst * ps) ~len:8 with
  | IU.Data 8 -> ()
  | _ -> Alcotest.fail "expected 8 bytes");
  Alcotest.(check string) "receiver sees pre-write data" "original"
    (Bytes.to_string (S.read_bytes sys rx ~addr:(dst * ps) ~len:8));
  Alcotest.(check string) "sender sees its write" "SCRIBBLE"
    (Bytes.to_string (S.read_bytes sys tx ~addr:(src * ps) ~len:8));
  S.audit sys;
  IU.close sys ch

let test_owner_exit_mid_transfer () =
  let sys, tx, rx = mk () in
  let src = S.mmap sys tx ~npages:1 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  let dst = S.mmap sys rx ~npages:1 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  S.write_bytes sys tx ~addr:(src * ps) (Bytes.of_string "survive");
  let ch = IU.pipe sys () in
  ignore (IU.send sys tx ch ~policy:Ipc.Loan ~addr:(src * ps) ~len:7);
  (* Sender exits with the loan outstanding: the frame goes to limbo and
     must still satisfy the receive, and the census must stay clean. *)
  S.destroy_vmspace sys tx;
  S.audit sys;
  (match IU.recv sys rx ch ~addr:(dst * ps) ~len:7 with
  | IU.Data 7 -> ()
  | _ -> Alcotest.fail "expected 7 bytes");
  Alcotest.(check string) "data survives owner exit" "survive"
    (Bytes.to_string (S.read_bytes sys rx ~addr:(dst * ps) ~len:7));
  S.audit sys;
  IU.close sys ch;
  S.audit sys

let test_mexp_pageout_mid_transfer () =
  (* A mexp-staged page is neither wired nor loaned, so the pagedaemon
     may evict it mid-transfer; the receive path must fault it back. *)
  let sys, tx, rx = mk ~ram_pages:128 () in
  let src = S.mmap sys tx ~npages:1 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  let dst = S.mmap sys rx ~npages:1 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  S.write_bytes sys tx ~addr:(src * ps) (Bytes.of_string "paged-out");
  let ch = IU.pipe sys () in
  let sent = IU.send sys tx ch ~policy:Ipc.Mexp ~addr:(src * ps) ~len:ps in
  Alcotest.(check int) "whole page accepted" ps sent;
  Alcotest.(check int) "moved by mapping" ps (stats sys).Sim.Stats.ipc_bytes_mapped;
  (* Memory pressure: push everything reclaimable out to swap. *)
  let hog = S.new_vmspace sys in
  let big = S.mmap sys hog ~npages:300 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  for i = 0 to 299 do
    S.write_bytes sys hog ~addr:((big + i) * ps) (Bytes.of_string "z")
  done;
  Alcotest.(check bool) "pressure caused pageouts" true
    ((stats sys).Sim.Stats.pageouts > 0);
  S.audit sys;
  (match IU.recv sys rx ch ~addr:(dst * ps) ~len:ps with
  | IU.Data n -> Alcotest.(check int) "full page received" ps n
  | IU.Mapped _ -> Alcotest.fail "unrequested mapped delivery");
  Alcotest.(check string) "data faulted back in" "paged-out"
    (Bytes.to_string (S.read_bytes sys rx ~addr:(dst * ps) ~len:9));
  S.audit sys;
  IU.close sys ch

let test_mapped_delivery () =
  let sys, tx, rx = mk () in
  let src = S.mmap sys tx ~npages:2 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  let dst = S.mmap sys rx ~npages:2 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  S.write_bytes sys tx ~addr:(src * ps) (Bytes.of_string "mapped!");
  let ch = IU.pipe sys () in
  ignore (IU.send sys tx ch ~policy:Ipc.Mexp ~addr:(src * ps) ~len:(2 * ps));
  S.audit sys;
  (match
     IU.recv sys rx ~accept_mapped:true ch ~addr:(dst * ps) ~len:(2 * ps)
   with
  | IU.Mapped { vpn; npages; len } ->
      Alcotest.(check int) "two pages" 2 npages;
      Alcotest.(check int) "whole payload" (2 * ps) len;
      Alcotest.(check string) "zero-copy contents" "mapped!"
        (Bytes.to_string (S.read_bytes sys rx ~addr:(vpn * ps) ~len:7));
      (* Receiver writes into the donated mapping: COW must isolate the
         sender. *)
      S.write_bytes sys rx ~addr:(vpn * ps) (Bytes.of_string "altered");
      Alcotest.(check string) "sender isolated from receiver write" "mapped!"
        (Bytes.to_string (S.read_bytes sys tx ~addr:(src * ps) ~len:7))
  | IU.Data _ -> Alcotest.fail "expected mapped delivery");
  S.audit sys;
  IU.close sys ch;
  S.audit sys

let test_loan_census_over_chain () =
  let sys, tx, rx = mk () in
  let src = S.mmap sys tx ~npages:4 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  let dst = S.mmap sys rx ~npages:4 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  S.access_range sys tx ~vpn:src ~npages:4 Vt.Write;
  let ch = IU.pipe sys () in
  (* Several loans outstanding at once; the census must match at every
     intermediate state, including after close drops the chain. *)
  ignore (IU.send sys tx ch ~policy:Ipc.Loan ~addr:(src * ps) ~len:(2 * ps));
  S.audit sys;
  ignore (IU.send sys tx ch ~policy:Ipc.Loan ~addr:((src + 2) * ps) ~len:100);
  S.audit sys;
  ignore (IU.recv sys rx ch ~addr:(dst * ps) ~len:300);
  S.audit sys;
  IU.close sys ch;
  S.audit sys;
  (* All loans returned: every frame's loan_count is back to zero. *)
  Physmem.iter_pages
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "page %d unloaned" p.Physmem.Page.id)
        0 p.Physmem.Page.loan_count)
    (Uvm.State.physmem sys.S.usys)

let () =
  Alcotest.run "ipc"
    [
      ( "streams",
        [
          Alcotest.test_case "policy equivalence" `Quick test_policy_equivalence;
          Alcotest.test_case "backpressure policy-independent" `Quick
            test_backpressure_policy_independent;
          Alcotest.test_case "vslock'd streams" `Quick test_vslocked_stream;
          QCheck_alcotest.to_alcotest prop_byte_queue_model;
        ] );
      ( "unwinding",
        [
          Alcotest.test_case "UVM: a Segv releases the channel lock" `Quick
            SU.segv_releases_lock;
          Alcotest.test_case "BSD VM: a Segv releases the channel lock"
            `Quick SB.segv_releases_lock;
          Alcotest.test_case "UVM: a faulting recv keeps its payload" `Quick
            SU.faulting_recv_keeps_payload;
          Alcotest.test_case "BSD VM: a faulting recv keeps its payload"
            `Quick SB.faulting_recv_keeps_payload;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "vslock counted" `Quick test_vslock_counted;
          Alcotest.test_case "COW write-after-send" `Quick
            test_cow_write_after_send;
          Alcotest.test_case "owner exit mid-transfer" `Quick
            test_owner_exit_mid_transfer;
          Alcotest.test_case "mexp pageout mid-transfer" `Quick
            test_mexp_pageout_mid_transfer;
          Alcotest.test_case "mapped delivery" `Quick test_mapped_delivery;
          Alcotest.test_case "loan census over chain" `Quick
            test_loan_census_over_chain;
        ] );
    ]
