(** Seeded torture harness with a differential oracle.

    Generates a random but reproducible sequence of VM operations
    (mmap/munmap/mprotect/minherit/madvise/msync/fault/fork/exit/wire/
    pageout pressure) and runs the *same* sequence against UVM and the
    BSD VM
    baseline on identically configured machines, auditing both kernels'
    invariants ({!Vmiface.Vm_sig.VM_SYS.audit}) every K operations and
    comparing the observable outcome of every operation.

    Determinism is anchored in a shared placement model: the harness does
    its own first-fit address assignment and passes [fixed_at] to both
    systems, so a trace means the same thing to both kernels and to every
    replay.  The model also knows which ranges are wired and refuses to
    generate the few operation shapes whose semantics the two systems are
    *allowed* to diverge on (e.g. unmapping wired pages), keeping the
    differential oracle sound.

    On failure the harness writes a crash artifact (op trace as JSON, the
    structured failure, the event-ring dump and counter snapshot of both
    machines) and can delta-debug the trace down to a minimal failing
    sequence: ddmin over the op list, where a candidate subset reproduces
    iff a fresh replay fails with the same (system, subsystem, invariant)
    key.  The crash file records the whole config, so {!read_crash} and
    {!replay} run it again.

    The {!corruption} hooks seed deliberate bugs (a leaked swap slot, an
    over-counted anon reference, a frame linked on two paging queues) so
    tests can prove the auditor catches each class and names the right
    subsystem. *)

module Vmtypes = Vmiface.Vmtypes
module Machine = Vmiface.Machine
module Prot = Pmap.Prot
open Vmtypes

(* -- harness shape ----------------------------------------------------- *)

let max_procs = 6
let max_regions = 12 (* region slots per process *)
let max_region_pages = 8
let nfiles = 3
let file_pages = 16
let va_base = 16
let va_limit = 4096
let max_chans = 4 (* global pipe slots (kernel objects, not per-proc) *)
let chan_cap_pages = 4
let max_kwires = 2 (* kernel wired-allocation slots (ustructs, ptps...) *)
let max_kwire_pages = 4

(* Pipe payload offsets/lengths are in bytes, so the placement model
   needs the page size to know which pages a transfer touches.  The
   harness always runs on default-sized pages. *)
let page_bytes = Machine.default_config.Machine.page_size

(* -- the op DSL --------------------------------------------------------- *)

(* Every operand is a small integer (slot indices, page offsets, table
   indices), so an op serializes to a flat JSON object and survives
   replay over any model state: ops that no longer make sense in a
   shrunken trace simply fail to resolve and are skipped. *)
type op =
  | Spawn of { p : int }
  | Exit of { p : int }
  | Fork of { parent : int; child : int }
  | Mmap of {
      p : int;
      r : int;
      npages : int;
      prot_ix : int;
      shared : bool;
      src_file : int;  (** 0 = zero-fill, 1..{!nfiles} = file *)
      fileoff : int;
    }
  | Munmap of { p : int; r : int; off : int; len : int }
  | Mprotect of { p : int; r : int; off : int; len : int; prot_ix : int }
  | Minherit of { p : int; r : int; inh_ix : int }
  | Madvise of { p : int; r : int; adv_ix : int }
  | Read of { p : int; r : int; page : int }
  | Write of { p : int; r : int; page : int; byte : int }
  | Mlock of { p : int; r : int; off : int; len : int }
  | Munlock of { p : int; r : int; off : int; len : int }
  | Msync of { p : int; r : int; off : int; len : int }
  | Pressure of { npages : int }
  | Pipe_open of { k : int }
  | Pipe_close of { k : int }
  | Pipe_write of {
      k : int;
      p : int;
      r : int;
      off : int;  (** byte offset within the region *)
      len : int;  (** byte count *)
      pol_ix : int;  (** index into {!Ipc.all_policies} *)
      vsl : bool;  (** wire the user buffer around the transfer *)
    }
  | Pipe_read of { k : int; p : int; r : int; off : int; len : int; vsl : bool }
  | Kwire of { k : int; npages : int }
      (** wired kernel allocation into global slot [k] (a user structure
          or page-table page standing in for §3.2's kernel wiring) *)
  | Kunwire of { k : int }
  | Vsl_grab of { p : int; r : int; off : int; len : int }
      (** vslock a page range and *hold* it across later ops (a long
          physio buffer), unlike the transient wiring of [Pipe_write] *)
  | Vsl_drop of { p : int }

(* Prot choices deliberately all include read: wiring faults pages in
   with a read access, and an unreadable wired range would make mlock
   outcomes depend on eviction timing. *)
let prots = [| Prot.rw; Prot.read; Prot.rwx; Prot.rx |]
let inhs = [| Inh_copy; Inh_shared; Inh_none |]
let advs = [| Adv_normal; Adv_random; Adv_sequential |]

(* -- the op codec ---------------------------------------------------------- *)

(* An op is its name and its operands by name; a flag reads 0 or 1.  This
   is the one encoding: the span an op runs under, [op_to_string] and the
   crash file's op objects all read it, and [decode] is its inverse. *)
let encode op =
  let flag b = if b then 1 else 0 in
  match op with
  | Spawn { p } -> ("spawn", [ ("p", p) ])
  | Exit { p } -> ("exit", [ ("p", p) ])
  | Fork { parent; child } -> ("fork", [ ("parent", parent); ("child", child) ])
  | Mmap { p; r; npages; prot_ix; shared; src_file; fileoff } ->
      ( "mmap",
        [ ("p", p); ("r", r); ("npages", npages); ("prot", prot_ix);
          ("shared", flag shared); ("src", src_file); ("fileoff", fileoff) ] )
  | Munmap { p; r; off; len } ->
      ("munmap", [ ("p", p); ("r", r); ("off", off); ("len", len) ])
  | Mprotect { p; r; off; len; prot_ix } ->
      ( "mprotect",
        [ ("p", p); ("r", r); ("off", off); ("len", len); ("prot", prot_ix) ] )
  | Minherit { p; r; inh_ix } ->
      ("minherit", [ ("p", p); ("r", r); ("inh", inh_ix) ])
  | Madvise { p; r; adv_ix } ->
      ("madvise", [ ("p", p); ("r", r); ("adv", adv_ix) ])
  | Read { p; r; page } -> ("read", [ ("p", p); ("r", r); ("page", page) ])
  | Write { p; r; page; byte } ->
      ("write", [ ("p", p); ("r", r); ("page", page); ("byte", byte) ])
  | Mlock { p; r; off; len } ->
      ("mlock", [ ("p", p); ("r", r); ("off", off); ("len", len) ])
  | Munlock { p; r; off; len } ->
      ("munlock", [ ("p", p); ("r", r); ("off", off); ("len", len) ])
  | Msync { p; r; off; len } ->
      ("msync", [ ("p", p); ("r", r); ("off", off); ("len", len) ])
  | Pressure { npages } -> ("pressure", [ ("npages", npages) ])
  | Pipe_open { k } -> ("pipe_open", [ ("k", k) ])
  | Pipe_close { k } -> ("pipe_close", [ ("k", k) ])
  | Pipe_write { k; p; r; off; len; pol_ix; vsl } ->
      ( "pipe_write",
        [ ("k", k); ("p", p); ("r", r); ("off", off); ("len", len);
          ("pol", pol_ix); ("vsl", flag vsl) ] )
  | Pipe_read { k; p; r; off; len; vsl } ->
      ( "pipe_read",
        [ ("k", k); ("p", p); ("r", r); ("off", off); ("len", len);
          ("vsl", flag vsl) ] )
  | Kwire { k; npages } -> ("kwire", [ ("k", k); ("npages", npages) ])
  | Kunwire { k } -> ("kunwire", [ ("k", k) ])
  | Vsl_grab { p; r; off; len } ->
      ("vsl_grab", [ ("p", p); ("r", r); ("off", off); ("len", len) ])
  | Vsl_drop { p } -> ("vsl_drop", [ ("p", p) ])

let decode name operands =
  let v k =
    match List.assoc_opt k operands with
    | Some n -> n
    | None -> failwith (Printf.sprintf "%s: missing operand %S" name k)
  in
  match name with
  | "spawn" -> Spawn { p = v "p" }
  | "exit" -> Exit { p = v "p" }
  | "fork" -> Fork { parent = v "parent"; child = v "child" }
  | "mmap" ->
      Mmap
        { p = v "p"; r = v "r"; npages = v "npages"; prot_ix = v "prot";
          shared = v "shared" <> 0; src_file = v "src"; fileoff = v "fileoff" }
  | "munmap" -> Munmap { p = v "p"; r = v "r"; off = v "off"; len = v "len" }
  | "mprotect" ->
      Mprotect
        { p = v "p"; r = v "r"; off = v "off"; len = v "len";
          prot_ix = v "prot" }
  | "minherit" -> Minherit { p = v "p"; r = v "r"; inh_ix = v "inh" }
  | "madvise" -> Madvise { p = v "p"; r = v "r"; adv_ix = v "adv" }
  | "read" -> Read { p = v "p"; r = v "r"; page = v "page" }
  | "write" -> Write { p = v "p"; r = v "r"; page = v "page"; byte = v "byte" }
  | "mlock" -> Mlock { p = v "p"; r = v "r"; off = v "off"; len = v "len" }
  | "munlock" -> Munlock { p = v "p"; r = v "r"; off = v "off"; len = v "len" }
  | "msync" -> Msync { p = v "p"; r = v "r"; off = v "off"; len = v "len" }
  | "pressure" -> Pressure { npages = v "npages" }
  | "pipe_open" -> Pipe_open { k = v "k" }
  | "pipe_close" -> Pipe_close { k = v "k" }
  | "pipe_write" ->
      Pipe_write
        { k = v "k"; p = v "p"; r = v "r"; off = v "off"; len = v "len";
          pol_ix = v "pol"; vsl = v "vsl" <> 0 }
  | "pipe_read" ->
      Pipe_read
        { k = v "k"; p = v "p"; r = v "r"; off = v "off"; len = v "len";
          vsl = v "vsl" <> 0 }
  | "kwire" -> Kwire { k = v "k"; npages = v "npages" }
  | "kunwire" -> Kunwire { k = v "k" }
  | "vsl_grab" ->
      Vsl_grab { p = v "p"; r = v "r"; off = v "off"; len = v "len" }
  | "vsl_drop" -> Vsl_drop { p = v "p" }
  | _ -> failwith (Printf.sprintf "unknown op %S" name)

let op_name op = fst (encode op)

let op_to_string op =
  let name, operands = encode op in
  Printf.sprintf "%s(%s)" name
    (String.concat ","
       (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) operands))

(* -- the placement model ------------------------------------------------ *)

type region = {
  vpn : int;  (** harness-assigned first virtual page *)
  npages : int;
  src_file : int;
  fileoff : int;
  shared : bool;
  mapped : bool array;  (** per-page: not yet unmapped *)
  mutable inh : inherit_mode;
  mutable wired : (int * int) list;  (** (off, len) multiset, from mlock *)
  mutable lineage_cow : bool;  (** was on either side of an Inh_copy fork *)
  mutable lineage_shared : bool;  (** was on either side of an Inh_shared fork *)
  mutable loan_src : bool;
      (** ever the source of a zero-copy (Loan/Mexp) send; sticky, because
          the model does not track when the borrower drains the staging *)
}

type proc = {
  regions : region option array;
  mutable vsl : (int * int * int) option;
      (** held vslock'd buffer as (region slot, off, len), at most one *)
}

type model = {
  procs : proc option array;
  chans : bool array;  (** pipe slot open? — mirrors both executors *)
  kwires : int option array;  (** wired kernel allocation slots (npages) *)
  mutable total_wired : int;
  wired_cap : int;
  mutable pressure_until : int;
      (** op index through which Oom outcomes are expected: bumped by the
          ops that spike memory demand (Pressure) or shrink reclaimable
          RAM (Kwire, Vsl_grab).  Outside this window an Oom divergence
          is only excused while a kernel is measurably low on memory. *)
}

let fresh_model ~ram_pages =
  {
    procs = Array.make max_procs None;
    chans = Array.make max_chans false;
    kwires = Array.make max_kwires None;
    total_wired = 0;
    wired_cap = max 8 (ram_pages / 8);
    pressure_until = -1;
  }

let proc_at m p = if p < 0 || p >= max_procs then None else m.procs.(p)

let region_at m p r =
  match proc_at m p with
  | None -> None
  | Some pr -> if r < 0 || r >= max_regions then None else pr.regions.(r)

let live_spans pr =
  let spans = ref [] in
  Array.iter
    (function
      | Some rg -> spans := (rg.vpn, rg.npages) :: !spans | None -> ())
    pr.regions;
  List.sort compare !spans

(* First fit over the proc's live region spans.  Both kernels receive the
   result via [fixed_at], so placement never depends on either system's
   own find-space policy. *)
let find_place pr ~npages =
  let rec scan at = function
    | [] -> if at + npages <= va_limit then Some at else None
    | (v, n) :: rest ->
        if at + npages <= v then Some at else scan (max at (v + n)) rest
  in
  scan va_base (live_spans pr)

let ranges_overlap (ao, al) (bo, bl) = ao < bo + bl && bo < ao + al
let overlaps_wired rg ~off ~len =
  List.exists (ranges_overlap (off, len)) rg.wired

let overlaps_vsl pr ~r ~off ~len =
  match pr.vsl with
  | Some (vr, voff, vlen) -> vr = r && ranges_overlap (off, len) (voff, vlen)
  | None -> false

(* -- resolution: op -> executable action -------------------------------- *)

type action =
  | A_spawn of { p : int }
  | A_exit of { p : int; unlocks : (int * int) list }  (** absolute (vpn, n) *)
  | A_fork of { parent : int; child : int }
  | A_mmap of {
      p : int;
      at : int;
      npages : int;
      prot : Prot.t;
      share : share;
      src_file : int;
      fileoff : int;
    }
  | A_munmap of { p : int; vpn : int; npages : int }
  | A_mprotect of { p : int; vpn : int; npages : int; prot : Prot.t }
  | A_minherit of { p : int; vpn : int; npages : int; inh : inherit_mode }
  | A_madvise of { p : int; vpn : int; npages : int; adv : advice }
  | A_read of { p : int; vpn : int }
  | A_write of { p : int; vpn : int; byte : int }
  | A_mlock of { p : int; vpn : int; npages : int }
  | A_munlock of { p : int; vpn : int; npages : int }
  | A_msync of { p : int; vpn : int; npages : int }
  | A_pressure of { npages : int }
  | A_pipe_open of { k : int }
  | A_pipe_close of { k : int }
  | A_pipe_write of {
      k : int;
      p : int;
      vpn : int;  (** region base; the byte address is vpn*ps + boff *)
      boff : int;
      len : int;
      policy : Ipc.policy;
      vsl : bool;
    }
  | A_pipe_read of {
      k : int;
      p : int;
      vpn : int;
      boff : int;
      len : int;
      vsl : bool;
    }
  | A_kwire of { k : int; npages : int }
  | A_kunwire of { k : int }
  | A_vsl_grab of { p : int; vpn : int; npages : int }
  | A_vsl_drop of { p : int }

(* [off, off + len) is a non-empty run inside [0, size). *)
let fits ~off ~len size = off >= 0 && len >= 1 && off + len <= size

(* Pages [lo, hi] of the region are all still mapped. *)
let all_mapped rg lo hi =
  let rec go i = i > hi || (rg.mapped.(i) && go (i + 1)) in
  go lo

(* Validate [op] against the model and compute absolute addresses.  Pure:
   generation probes candidates with it, and replay of a shrunken trace
   uses it to skip ops whose preconditions no longer hold.  The hazard
   rules live here: no munmap/mprotect across a wired range (the systems
   may legitimately diverge there), mlock only over fully mapped ranges
   (a mid-range fault would leave the two kernels half-wired) and only
   under the global wired-page cap. *)
let resolve m op : action option =
  match op with
  | Spawn { p } -> (
      match proc_at m p with
      | None when p >= 0 && p < max_procs -> Some (A_spawn { p })
      | _ -> None)
  | Exit { p } -> (
      match proc_at m p with
      | None -> None
      | Some pr ->
          let unlocks = ref [] in
          Array.iter
            (function
              | Some rg ->
                  List.iter
                    (fun (off, len) ->
                      unlocks := (rg.vpn + off, len) :: !unlocks)
                    rg.wired
              | None -> ())
            pr.regions;
          Some (A_exit { p; unlocks = !unlocks }))
  | Fork { parent; child } -> (
      match (proc_at m parent, child) with
      | Some pp, c
        when c >= 0 && c < max_procs && c <> parent
             && proc_at m c = None
             (* A process holding a vslock'd buffer is blocked inside the
                kernel (physio in flight) and cannot fork.  Forking here
                would also COW-protect the wired pages, and a later write
                would displace a frame whose wiring lives only in the
                vslock token — unrecoverable by design (§3.2). *)
             && pp.vsl = None ->
          Some (A_fork { parent; child })
      | _ -> None)
  | Mmap { p; r; npages; prot_ix; shared; src_file; fileoff } -> (
      match proc_at m p with
      | None -> None
      | Some pr ->
          if
            r < 0 || r >= max_regions
            || pr.regions.(r) <> None
            || npages < 1
            || npages > max_region_pages
            || prot_ix < 0
            || prot_ix >= Array.length prots
            || src_file < 0
            || src_file > nfiles
            || (src_file > 0 && (fileoff < 0 || fileoff + npages > file_pages))
          then None
          else
            (* File mappings are forced private: shared file writes would
               compare vnode-cache coherence policies, not invariants. *)
            let share =
              if src_file > 0 then Private
              else if shared then Shared
              else Private
            in
            (match find_place pr ~npages with
            | None -> None
            | Some at ->
                Some
                  (A_mmap
                     {
                       p;
                       at;
                       npages;
                       prot = prots.(prot_ix);
                       share;
                       src_file;
                       fileoff;
                     })))
  | Munmap { p; r; off; len } -> (
      match (proc_at m p, region_at m p r) with
      | Some pr, Some rg
        when fits ~off ~len rg.npages
             && (not (overlaps_wired rg ~off ~len))
             && not (overlaps_vsl pr ~r ~off ~len) ->
          Some (A_munmap { p; vpn = rg.vpn + off; npages = len })
      | _ -> None)
  | Mprotect { p; r; off; len; prot_ix } -> (
      (* Unlike munmap, mprotect across a wired range is fair game: every
         prot choice keeps read (so the wired pages stay accessible) and
         both kernels must preserve the wiring across the permission
         change — exactly the interaction worth generating. *)
      match region_at m p r with
      | Some rg
        when fits ~off ~len rg.npages
             && prot_ix >= 0
             && prot_ix < Array.length prots ->
          Some
            (A_mprotect
               { p; vpn = rg.vpn + off; npages = len; prot = prots.(prot_ix) })
      | _ -> None)
  | Minherit { p; r; inh_ix } -> (
      match region_at m p r with
      | Some rg when inh_ix >= 0 && inh_ix < Array.length inhs ->
          (* Mixing COW and shared inheritance on one region is where the
             two kernels legitimately diverge: 4.4BSD's object sharing
             cannot express "share a mapping that already carries deferred
             copies" (needs-copy sharers each grow a private shadow), while
             UVM's shared amaps stay coherent — the paper's §5.1 argument,
             not a bug.  Keep each region's sharing group homogeneous:
             shared inheritance only for anonymous regions never on a COW
             fork side, COW inheritance never for regions already shared. *)
          let inh = inhs.(inh_ix) in
          let allowed =
            match inh with
            | Inh_shared ->
                (* [not rg.loan_src]: a still-staged loan of this region's
                   frames must not gain co-sharers — their writes would
                   displace loaned frames whose wirings live in another
                   sharer's map entries (see the Pipe_write gate). *)
                rg.src_file = 0 && (not rg.lineage_cow) && not rg.loan_src
            | Inh_copy -> (not rg.shared) && not rg.lineage_shared
            | Inh_none -> true
          in
          if allowed then
            Some (A_minherit { p; vpn = rg.vpn; npages = rg.npages; inh })
          else None
      | _ -> None)
  | Madvise { p; r; adv_ix } -> (
      match region_at m p r with
      | Some rg when adv_ix >= 0 && adv_ix < Array.length advs ->
          Some
            (A_madvise
               { p; vpn = rg.vpn; npages = rg.npages; adv = advs.(adv_ix) })
      | _ -> None)
  | Read { p; r; page } -> (
      match region_at m p r with
      | Some rg when page >= 0 && page < rg.npages ->
          Some (A_read { p; vpn = rg.vpn + page })
      | _ -> None)
  | Write { p; r; page; byte } -> (
      match region_at m p r with
      | Some rg when page >= 0 && page < rg.npages && byte >= 0 && byte < 256
        ->
          Some (A_write { p; vpn = rg.vpn + page; byte })
      | _ -> None)
  | Mlock { p; r; off; len } -> (
      match region_at m p r with
      | Some rg
        when fits ~off ~len rg.npages
             && m.total_wired + len <= m.wired_cap
             && all_mapped rg off (off + len - 1) ->
          Some (A_mlock { p; vpn = rg.vpn + off; npages = len })
      | _ -> None)
  | Munlock { p; r; off; len } -> (
      match region_at m p r with
      | Some rg when List.mem (off, len) rg.wired ->
          Some (A_munlock { p; vpn = rg.vpn + off; npages = len })
      | _ -> None)
  | Msync { p; r; off; len } -> (
      (* msync neither unmaps nor rewires, so wired overlap is fine; both
         kernels swallow write errors (failed pages just stay dirty), so
         the outcome is always Done and the oracle stays sound even under
         fault injection. *)
      match region_at m p r with
      | Some rg when fits ~off ~len rg.npages ->
          Some (A_msync { p; vpn = rg.vpn + off; npages = len })
      | _ -> None)
  | Pressure { npages } ->
      if npages >= 1 && npages <= 64 then Some (A_pressure { npages })
      else None
  | Pipe_open { k } ->
      if k >= 0 && k < max_chans && not m.chans.(k) then
        Some (A_pipe_open { k })
      else None
  | Pipe_close { k } ->
      if k >= 0 && k < max_chans && m.chans.(k) then Some (A_pipe_close { k })
      else None
  | Pipe_write { k; p; r; off; len; pol_ix; vsl } -> (
      match region_at m p r with
      | Some rg
        when k >= 0 && k < max_chans && m.chans.(k)
             && pol_ix >= 0
             && pol_ix < List.length Ipc.all_policies
             && fits ~off ~len (rg.npages * page_bytes)
             (* Shared mappings are object-backed: sharers write the
                loaned frame in place, so a post-send write would reach
                the borrower under UVM but not under the copy baseline.
                Private mappings always COW away from loaned frames
                ([writable_in_place] checks the loan count), so they are
                the sound source set.  Shared-amap lineage is excluded
                for the same frame-sharing reason — and because a COW
                displacement of a loaned shared anon triggered by one
                sharer cannot see wirings another sharer's map entries
                carry on the displaced frame. *)
             && (not rg.shared)
             && (not rg.lineage_shared)
             (* A hole would fault mid-loan and leak the pages already
                wired, so sends need full source coverage. *)
             && all_mapped rg (off / page_bytes) ((off + len - 1) / page_bytes)
        ->
          Some
            (A_pipe_write
               {
                 k;
                 p;
                 vpn = rg.vpn;
                 boff = off;
                 len;
                 policy = List.nth Ipc.all_policies pol_ix;
                 vsl;
               })
      | _ -> None)
  | Pipe_read { k; p; r; off; len; vsl } -> (
      match region_at m p r with
      | Some rg
        when k >= 0 && k < max_chans && m.chans.(k)
             && fits ~off ~len (rg.npages * page_bytes) ->
          (* The destination may be read-only or have holes: the copy-out
             (or a vslock over the hole, which unwires what it wired)
             then raises Segv, and the channel keeps every queued byte (a
             receive copies out before it consumes). *)
          Some (A_pipe_read { k; p; vpn = rg.vpn; boff = off; len; vsl })
      | _ -> None)
  | Kwire { k; npages } ->
      if
        k >= 0 && k < max_kwires
        && m.kwires.(k) = None
        && npages >= 1 && npages <= max_kwire_pages
        && m.total_wired + npages <= m.wired_cap
      then Some (A_kwire { k; npages })
      else None
  | Kunwire { k } ->
      if k >= 0 && k < max_kwires && m.kwires.(k) <> None then
        Some (A_kunwire { k })
      else None
  | Vsl_grab { p; r; off; len } -> (
      (* Like mlock, wiring faults the range in, so it must be fully
         mapped; and each proc holds at most one buffer (physio holds one
         at a time), which keeps Exit's implicit drop unambiguous.
         Restricted to anonymous regions with no deferred-copy lineage:
         vslock wiring lives only in the token (never the map), so a COW
         displacement under it — a private file page promoting on write,
         or a copy-inherited anon resolving — would strand the wire count
         on the old frame.  Real physio buffers are plain process memory
         faulted writable before the transfer, so the restriction loses
         nothing. *)
      match (proc_at m p, region_at m p r) with
      | Some pr, Some rg
        when pr.vsl = None
             && rg.src_file = 0
             && (not rg.lineage_cow)
             && fits ~off ~len rg.npages
             && m.total_wired + len <= m.wired_cap
             && all_mapped rg off (off + len - 1) ->
          Some (A_vsl_grab { p; vpn = rg.vpn + off; npages = len })
      | _ -> None)
  | Vsl_drop { p } -> (
      match proc_at m p with
      | Some pr when pr.vsl <> None -> Some (A_vsl_drop { p })
      | _ -> None)

let rec remove_first x = function
  | [] -> []
  | y :: tl -> if x = y then tl else y :: remove_first x tl

(* Commit the resolved op to the model. *)
let apply m op a =
  match (op, a) with
  | Spawn _, A_spawn { p } ->
      m.procs.(p) <- Some { regions = Array.make max_regions None; vsl = None }
  | Fork _, A_fork { parent; child } ->
      let regions =
        Array.map
          (function
            | Some rg when rg.inh <> Inh_none ->
                (* Inherited mappings keep their holes; wiring never
                   crosses fork (both kernels clear the child's counts).
                   Record the inheritance in both sides' lineage so
                   [resolve]'s minherit gates keep COW and shared sharing
                   groups disjoint from here on. *)
                (match rg.inh with
                | Inh_copy -> rg.lineage_cow <- true
                | Inh_shared -> rg.lineage_shared <- true
                | Inh_none -> ());
                Some
                  {
                    rg with
                    mapped = Array.copy rg.mapped;
                    wired = [];
                  }
            | _ -> None)
          (Option.get m.procs.(parent)).regions
      in
      m.procs.(child) <- Some { regions; vsl = None }
  | Exit _, A_exit { p; unlocks } ->
      m.total_wired <-
        m.total_wired - List.fold_left (fun acc (_, l) -> acc + l) 0 unlocks;
      (* Exit implicitly drops a held vslock'd buffer (physio completes
         before the space dies); the executors mirror this. *)
      (match m.procs.(p) with
      | Some { vsl = Some (_, _, vlen); _ } ->
          m.total_wired <- m.total_wired - vlen
      | _ -> ());
      m.procs.(p) <- None
  | Mmap { r; _ }, A_mmap { p; at; npages; share; src_file; fileoff; _ }
    ->
      (Option.get m.procs.(p)).regions.(r) <-
        Some
          {
            vpn = at;
            npages;
            src_file;
            fileoff;
            shared = share = Shared;
            mapped = Array.make npages true;
            inh = (if share = Shared then Inh_shared else Inh_copy);
            wired = [];
            lineage_cow = false;
            lineage_shared = false;
            loan_src = false;
          }
  | Munmap { r; off; len; _ }, A_munmap { p; _ } ->
      let pr = Option.get m.procs.(p) in
      let rg = Option.get pr.regions.(r) in
      for i = off to off + len - 1 do
        rg.mapped.(i) <- false
      done;
      if Array.for_all (fun b -> not b) rg.mapped then pr.regions.(r) <- None
  | Minherit { r; _ }, A_minherit { p; inh; _ } ->
      (Option.get (region_at m p r)).inh <- inh
  | Mlock { r; off; len; _ }, A_mlock { p; _ } ->
      let rg = Option.get (region_at m p r) in
      rg.wired <- (off, len) :: rg.wired;
      m.total_wired <- m.total_wired + len
  | Munlock { r; off; len; _ }, A_munlock { p; _ } ->
      let rg = Option.get (region_at m p r) in
      rg.wired <- remove_first (off, len) rg.wired;
      m.total_wired <- m.total_wired - len
  | Pipe_open _, A_pipe_open { k } -> m.chans.(k) <- true
  | Pipe_close _, A_pipe_close { k } -> m.chans.(k) <- false
  | Kwire _, A_kwire { k; npages } ->
      m.kwires.(k) <- Some npages;
      m.total_wired <- m.total_wired + npages
  | Kunwire _, A_kunwire { k } ->
      m.total_wired <- m.total_wired - Option.get m.kwires.(k);
      m.kwires.(k) <- None
  | Vsl_grab { r; off; len; _ }, A_vsl_grab { p; _ } ->
      (Option.get (proc_at m p)).vsl <- Some (r, off, len);
      m.total_wired <- m.total_wired + len
  | Vsl_drop _, A_vsl_drop { p } ->
      let pr = Option.get (proc_at m p) in
      let _, _, len = Option.get pr.vsl in
      pr.vsl <- None;
      m.total_wired <- m.total_wired - len
  | Pipe_write { r; _ }, A_pipe_write { p; policy = Ipc.Loan | Ipc.Mexp; _ }
    ->
      (* Zero-copy staging may hold the source frames until the reader
         drains the channel; mark the region so it is never offered to
         Inh_shared while a loan could be live. *)
      (Option.get (region_at m p r)).loan_src <- true
  | _ -> ()
  (* madvise/mprotect/read/write/msync/pressure/copy sends/pipe reads leave
     the model alone *)

(* -- outcomes ----------------------------------------------------------- *)

type outcome =
  | Done
  | Byte of int  (** result of a 1-byte read *)
  | Io of { n : int; sum : int }
      (** pipe transfer: bytes moved, and a positional checksum of the
          delivered data for reads *)
  | Fault of string  (** deterministic Segv (no-entry / prot / pager) *)
  | Oom  (** out of memory or swap — timing-dependent, compared as wildcard *)

let outcome_to_string = function
  | Done -> "done"
  | Byte b -> Printf.sprintf "byte:%d" b
  | Io { n; sum } -> Printf.sprintf "io:%d:%d" n sum
  | Fault s -> "fault:" ^ s
  | Oom -> "oom"

(* -- per-system executor ------------------------------------------------ *)

module Exec (V : Vmiface.Vm_sig.VM_SYS) = struct
  module I = Ipc.Make (V)

  type t = {
    sys : V.sys;
    procs : V.vmspace option array;
    chans : I.chan option array;
    kwires : (int * int) option array;  (** slot -> (kernel vpn, npages) *)
    vsls : V.wired_buffer option array;  (** per-proc held vslock token *)
    files : Vfs.Vnode.t array;
    page_size : int;
  }

  let boot ~config () =
    let sys = V.boot ~config () in
    let mach = V.machine sys in
    let files =
      Array.init nfiles (fun i ->
          Vfs.create_file mach.Machine.vfs
            ~name:(Printf.sprintf "torture.%d" i)
            ~size:(file_pages * Machine.page_size mach))
    in
    {
      sys;
      procs = Array.make max_procs None;
      chans = Array.make max_chans None;
      kwires = Array.make max_kwires None;
      vsls = Array.make max_procs None;
      files;
      page_size = Machine.page_size mach;
    }

  let name = V.name
  (* The kernel's own audit, then each open channel's accounting: a
     receive that faults must leave its queue as it was. *)
  let audit t =
    V.audit t.sys;
    Array.iteri
      (fun k -> function
        | Some ch when I.queued_bytes ch <> I.held_bytes ch ->
            Check.fail ~system:V.name ~subsys:Check.Ipc
              ~invariant:"queued_bytes"
              (Printf.sprintf "chan %d counts %d bytes, its segments hold %d" k
                 (I.queued_bytes ch) (I.held_bytes ch))
        | Some _ | None -> ())
      t.chans
  let source t = (V.machine t.sys).Machine.trace_source

  (* Is this kernel measurably short on memory right now?  Free pages at
     or below the pagedaemon's target, or swap nearly exhausted — the
     states in which an allocation can legitimately fail.  Used to excuse
     Oom outcomes that fall outside the model's pressure window. *)
  let memory_tight t =
    let m = V.machine t.sys in
    let pm = m.Machine.physmem in
    Physmem.free_count pm <= Physmem.freetarg pm
    || Swap.Swaptier.slots_usable m.Machine.swap
         - Swap.Swaptier.slots_in_use m.Machine.swap
       < 64

  let proc t p =
    match t.procs.(p) with
    | Some vm -> vm
    | None -> invalid_arg "Torture.exec: op on dead proc (harness bug)"

  let chan t k =
    match t.chans.(k) with
    | Some ch -> ch
    | None -> invalid_arg "Torture.exec: op on closed pipe (harness bug)"

  (* Positional checksum of delivered bytes: catches both corruption and
     reordering in the received stream. *)
  let checksum data n =
    let sum = ref 0 in
    for i = 0 to n - 1 do
      sum := ((!sum * 31) + Char.code (Bytes.get data i)) land 0x3FFFFFFF
    done;
    !sum

  (* A user access that faults or runs short of pages is an outcome. *)
  let user f =
    try f () with
    | Segv { error = Out_of_memory | Out_of_swap; _ } | Physmem.Out_of_pages ->
        Oom
    | Segv { error; _ } -> Fault (string_of_fault_error error)

  (* The model budgets wiring well below RAM, so a wiring failure is a
     harness bug, not a kernel one: fail loudly rather than leave the two
     systems half-wired. *)
  let wire what f =
    (try f ()
     with Segv _ | Physmem.Out_of_pages ->
       failwith ("Torture: out of memory " ^ what));
    Done

  let exec_action t (a : action) : outcome =
    match a with
    | A_spawn { p } ->
        t.procs.(p) <- Some (V.new_vmspace t.sys);
        Done
    | A_fork { parent; child } ->
        t.procs.(child) <- Some (V.fork t.sys (proc t parent));
        Done
    | A_exit { p; unlocks } ->
        let vm = proc t p in
        Option.iter (V.vsunlock t.sys vm) t.vsls.(p);
        t.vsls.(p) <- None;
        List.iter (fun (vpn, npages) -> V.munlock t.sys vm ~vpn ~npages) unlocks;
        V.destroy_vmspace t.sys vm;
        t.procs.(p) <- None;
        Done
    | A_mmap { p; at; npages; prot; share; src_file; fileoff } ->
        let src =
          if src_file = 0 then Zero
          else File (t.files.(src_file - 1), fileoff)
        in
        let (_ : int) =
          V.mmap t.sys (proc t p) ~fixed_at:at ~npages ~prot ~share src
        in
        Done
    | A_munmap { p; vpn; npages } ->
        V.munmap t.sys (proc t p) ~vpn ~npages;
        Done
    | A_mprotect { p; vpn; npages; prot } ->
        V.mprotect t.sys (proc t p) ~vpn ~npages prot;
        Done
    | A_minherit { p; vpn; npages; inh } ->
        V.minherit t.sys (proc t p) ~vpn ~npages inh;
        Done
    | A_madvise { p; vpn; npages; adv } ->
        V.madvise t.sys (proc t p) ~vpn ~npages adv;
        Done
    | A_read { p; vpn } ->
        user (fun () ->
            let b =
              V.read_bytes t.sys (proc t p) ~addr:(vpn * t.page_size) ~len:1
            in
            Byte (Char.code (Bytes.get b 0)))
    | A_write { p; vpn; byte } ->
        user (fun () ->
            V.write_bytes t.sys (proc t p) ~addr:(vpn * t.page_size)
              (Bytes.make 1 (Char.chr byte));
            Done)
    | A_mlock { p; vpn; npages } ->
        wire "while wiring; wired cap too high" (fun () ->
            V.mlock t.sys (proc t p) ~vpn ~npages)
    | A_munlock { p; vpn; npages } ->
        V.munlock t.sys (proc t p) ~vpn ~npages;
        Done
    | A_msync { p; vpn; npages } ->
        V.msync t.sys (proc t p) ~vpn ~npages;
        Done
    | A_pressure { npages } ->
        (* A throwaway address space dirties fresh anonymous pages and
           exits, forcing page reclamation in whatever order the system's
           own pagedaemon picks. *)
        let vm = V.new_vmspace t.sys in
        let vpn = V.mmap t.sys vm ~npages ~prot:Prot.rw ~share:Private Zero in
        (try V.access_range t.sys vm ~vpn ~npages Write
         with Segv _ | Physmem.Out_of_pages -> ());
        V.destroy_vmspace t.sys vm;
        Done
    | A_pipe_open { k } ->
        t.chans.(k) <-
          Some (I.pipe t.sys ~cap_bytes:(chan_cap_pages * t.page_size) ());
        Done
    | A_pipe_close { k } ->
        I.close t.sys (chan t k);
        t.chans.(k) <- None;
        Done
    | A_pipe_write { k; p; vpn; boff; len; policy; vsl } ->
        let addr = (vpn * t.page_size) + boff in
        user (fun () ->
            let n =
              I.send t.sys (proc t p) ~vslocked:vsl (chan t k) ~policy ~addr
                ~len
            in
            Io { n; sum = 0 })
    | A_pipe_read { k; p; vpn; boff; len; vsl } ->
        let addr = (vpn * t.page_size) + boff in
        let vm = proc t p in
        user (fun () ->
            match I.recv t.sys vm ~vslocked:vsl (chan t k) ~addr ~len with
            | I.Data n ->
                let data =
                  if n > 0 then V.read_bytes t.sys vm ~addr ~len:n
                  else Bytes.empty
                in
                Io { n; sum = checksum data n }
            | I.Mapped _ -> assert false (* never requested *))
    | A_kwire { k; npages } ->
        wire "in kernel_alloc_wired" (fun () ->
            t.kwires.(k) <- Some (V.kernel_alloc_wired t.sys ~npages, npages))
    | A_kunwire { k } ->
        let vpn, npages = Option.get t.kwires.(k) in
        V.kernel_free_wired t.sys ~vpn ~npages;
        t.kwires.(k) <- None;
        Done
    | A_vsl_grab { p; vpn; npages } ->
        wire "in vslock" (fun () ->
            t.vsls.(p) <- Some (V.vslock t.sys (proc t p) ~vpn ~npages))
    | A_vsl_drop { p } ->
        V.vsunlock t.sys (proc t p) (Option.get t.vsls.(p));
        t.vsls.(p) <- None;
        Done

  (* Each op runs under a root span, so everything the kernel did for it
     hangs off one tree.  A crash deliberately does NOT finish the span:
     the open stack at that instant is the active causal tree, and the
     artifact writer dumps it as-is. *)
  let exec t op (a : action) : outcome =
    let m = V.machine t.sys in
    let sp = Machine.span_start m ~subsys:"torture" (op_name op) in
    let o = exec_action t a in
    Machine.span_finish m sp (fun () -> [ ("outcome", outcome_to_string o) ]);
    o
end

module Exec_uvm = Exec (Uvm.Sys)
module Exec_bsd = Exec (Bsdvm.Sys)

(* -- seeded corruptions ------------------------------------------------- *)

type corruption =
  | Leak_swap_slot  (** allocate a swap slot no object will ever claim *)
  | Overref_anon  (** over-count some live anon's reference count *)
  | Queue_double_insert  (** link a frame on two paging queues at once *)
  | Leak_loan  (** bump a live page's loan count with no borrower *)
  | Leak_swapcache  (** swapcache claims a slot the allocator never gave it *)

(* Each corruption under the name the CLI and the crash file give it. *)
let corruptions =
  [
    ("leak-swap-slot", Leak_swap_slot);
    ("overref-anon", Overref_anon);
    ("queue-double-insert", Queue_double_insert);
    ("leak-loan", Leak_loan);
    ("leak-swapcache", Leak_swapcache);
  ]

(* Corruptions target the UVM instance (the machine-level ones could hit
   either; the anon one needs UVM internals).  Returns false when the
   needed state does not exist yet — the run then simply finds no bug. *)
let apply_corruption (eu : Exec_uvm.t) c : bool =
  let mach = Uvm.Sys.machine eu.Exec_uvm.sys in
  match c with
  | Leak_swap_slot -> (
      match Swap.Swaptier.alloc_slots mach.Machine.swap ~n:1 with
      | Some _ -> true
      | None -> false)
  | Leak_swapcache ->
      (* A cache entry charged against a slot the allocator never handed
         out — what a forgotten invalidate after a slot free looks like. *)
      Swap.Swaptier.Testhook.leak_cache_entry mach.Machine.swap
  | Queue_double_insert -> (
      let victim = ref None in
      Physmem.iter_pages
        (fun (pg : Physmem.Page.t) ->
          if Option.is_none !victim then
            match pg.Physmem.Page.queue with
            | Physmem.Page.Q_active | Physmem.Page.Q_inactive ->
                victim := Some pg
            | _ -> ())
        mach.Machine.physmem;
      match !victim with
      | Some pg ->
          Physmem.Testhook.double_insert mach.Machine.physmem pg;
          true
      | None -> false)
  | Leak_loan -> (
      (* An anon-owned frame whose loan count says "borrowed" while no
         kernel loan or borrowing anon exists: exactly what a lost
         uvm_unloan would leave behind. *)
      let victim = ref None in
      Physmem.iter_pages
        (fun (pg : Physmem.Page.t) ->
          if Option.is_none !victim then
            match (pg.Physmem.Page.queue, pg.Physmem.Page.owner) with
            | ( (Physmem.Page.Q_active | Physmem.Page.Q_inactive),
                Uvm.Anon.Anon_page _ ) ->
                victim := Some pg
            | _ -> ())
        mach.Machine.physmem;
      match !victim with
      | Some pg ->
          pg.Physmem.Page.loan_count <- pg.Physmem.Page.loan_count + 1;
          true
      | None -> false)
  | Overref_anon ->
      (* Prefer an anon under a read-only mapping: a write fault on an
         over-referenced anon copies it out of its amap, and the copy
         would take the evidence with it before the next audit. *)
      let hit = ref false in
      let over ~writable =
        Hashtbl.iter
          (fun _ (vm : Uvm.Sys.vmspace) ->
            Uvm.Map.iter_entries
              (fun (e : Uvm.Map.entry) ->
                match e.Uvm.Map.amap with
                | Some am
                  when (not !hit) && e.Uvm.Map.prot.Pmap.Prot.w = writable ->
                    let n = e.Uvm.Map.epage - e.Uvm.Map.spage in
                    for d = 0 to n - 1 do
                      if not !hit then
                        match
                          Uvm.Amap.lookup am ~slot:(e.Uvm.Map.amapoff + d)
                        with
                        | Some (anon : Uvm.Anon.t) ->
                            anon.Uvm.Anon.refs <- anon.Uvm.Anon.refs + 1;
                            hit := true
                        | None -> ()
                    done
                | _ -> ())
              vm.Uvm.Sys.map)
          eu.Exec_uvm.sys.Uvm.Sys.vmspaces
      in
      over ~writable:false;
      if not !hit then over ~writable:true;
      !hit

(* -- failures ----------------------------------------------------------- *)

type bug =
  | Audit_bug of { op_index : int; f : Check.failure }
  | Mismatch of { op_index : int; op : op; uvm : outcome; bsd : outcome }
  | Crash of { op_index : int; op : op; system : string; exn : string }

(* The shrinker's notion of "the same bug": stable across replays even
   though op indices and incidental detail shift as the trace shrinks. *)
let bug_key = function
  | Audit_bug { f; _ } ->
      Printf.sprintf "audit:%s:%s:%s" f.Check.system
        (Check.subsystem_name f.Check.subsys)
        f.Check.invariant
  | Mismatch { op; _ } -> "mismatch:" ^ op_name op
  | Crash { system; exn; _ } -> Printf.sprintf "crash:%s:%s" system exn

let string_of_bug = function
  | Audit_bug { op_index; f } ->
      Printf.sprintf "audit failure after op %d: %s" op_index
        (Check.string_of_failure f)
  | Mismatch { op_index; op; uvm; bsd } ->
      Printf.sprintf "outcome mismatch at op %d %s: UVM=%s BSD VM=%s" op_index
        (op_to_string op) (outcome_to_string uvm) (outcome_to_string bsd)
  | Crash { op_index; op; system; exn } ->
      Printf.sprintf "crash at op %d %s in %s: %s" op_index (op_to_string op)
        system exn

(* -- generation --------------------------------------------------------- *)

let pick_list rng = function
  | [] -> None
  | l -> Some (List.nth l (Sim.Rng.int rng (List.length l)))

(* The slots of [0, n) that [keep] accepts, ascending.  The order is part
   of a trace: [pick_list] draws an index into it. *)
let slots n keep = List.filter keep (List.init n Fun.id)
let live_proc_slots m = slots max_procs (fun p -> m.procs.(p) <> None)
let free_proc_slots m = slots max_procs (fun p -> m.procs.(p) = None)

let region_slots m p ~live =
  match proc_at m p with
  | None -> []
  | Some pr -> slots max_regions (fun r -> (pr.regions.(r) <> None) = live)

(* Draw one op.  Candidates are sampled with field values that are
   usually valid for the current model and verified with {!resolve}; if
   nothing resolves after a bounded number of draws the fallback ladder
   (spawn a process, else apply pressure) always succeeds, so generation
   never stalls. *)
let gen rng m ~faults : op =
  let pick_live_region () =
    Option.bind (pick_list rng (live_proc_slots m)) (fun p ->
        Option.bind (pick_list rng (region_slots m p ~live:true)) (fun r ->
            Option.map (fun rg -> (p, r, rg)) (region_at m p r)))
  in
  let cand_read () =
    Option.map
      (fun (p, r, rg) -> Read { p; r; page = Sim.Rng.int rng rg.npages })
      (pick_live_region ())
  in
  let cand_write () =
    Option.map
      (fun (p, r, rg) ->
        Write
          {
            p;
            r;
            page = Sim.Rng.int rng rg.npages;
            byte = 1 + Sim.Rng.int rng 255;
          })
      (pick_live_region ())
  in
  let cand_mmap () =
    match pick_list rng (live_proc_slots m) with
    | None -> None
    | Some p -> (
        match pick_list rng (region_slots m p ~live:false) with
        | None -> None
        | Some r ->
            let npages = 1 + Sim.Rng.int rng max_region_pages in
            let prot_ix = Sim.Rng.pick rng [| 0; 0; 0; 0; 1; 2; 3 |] in
            let use_file = Sim.Rng.int rng 10 < 3 in
            let src_file = if use_file then 1 + Sim.Rng.int rng nfiles else 0 in
            let fileoff =
              if use_file then Sim.Rng.int rng (file_pages - npages + 1) else 0
            in
            let shared = (not use_file) && Sim.Rng.int rng 4 = 0 in
            Some (Mmap { p; r; npages; prot_ix; shared; src_file; fileoff }))
  in
  (* A page run of the region, at most [cap] pages long. *)
  let draw_range ?(cap = max_int) rg =
    let off = Sim.Rng.int rng rg.npages in
    (off, 1 + Sim.Rng.int rng (min cap (rg.npages - off)))
  in
  let cand_range ?cap mk =
    match pick_live_region () with
    | Some (p, r, rg) ->
        let off, len = draw_range ?cap rg in
        Some (mk p r off len)
    | None -> None
  in
  let cand_munmap () =
    cand_range (fun p r off len -> Munmap { p; r; off; len })
  in
  let cand_mprotect () =
    cand_range (fun p r off len ->
        Mprotect
          { p; r; off; len; prot_ix = Sim.Rng.int rng (Array.length prots) })
  in
  let cand_minherit () =
    Option.map
      (fun (p, r, _) ->
        Minherit { p; r; inh_ix = Sim.Rng.int rng (Array.length inhs) })
      (pick_live_region ())
  in
  let cand_madvise () =
    Option.map
      (fun (p, r, _) ->
        Madvise { p; r; adv_ix = Sim.Rng.int rng (Array.length advs) })
      (pick_live_region ())
  in
  let cand_mlock () =
    cand_range ~cap:4 (fun p r off len -> Mlock { p; r; off; len })
  in
  let cand_msync () =
    cand_range (fun p r off len -> Msync { p; r; off; len })
  in
  let cand_mprotect_wired () =
    (* Directed: flip permissions across a range that overlaps a wired
       run, so the wiring <-> protection interaction actually occurs. *)
    match pick_live_region () with
    | Some (p, r, rg) when rg.wired <> [] -> (
        match pick_list rng rg.wired with
        | Some (woff, wlen) ->
            let off = max 0 (woff - Sim.Rng.int rng 2) in
            let len = min (rg.npages - off) (wlen + Sim.Rng.int rng 3) in
            Some
              (Mprotect
                 {
                   p;
                   r;
                   off;
                   len;
                   prot_ix = Sim.Rng.int rng (Array.length prots);
                 })
        | None -> None)
    | _ -> None
  in
  let cand_mlock_shared () =
    (* Directed: wire a range of a region whose amap is shared with
       another process (Inh_shared fork lineage) — mlock meets shared
       amaps. *)
    let shared = ref [] in
    Array.iteri
      (fun p -> function
        | Some pr ->
            Array.iteri
              (fun r -> function
                | Some rg when rg.lineage_shared -> shared := (p, r, rg) :: !shared
                | _ -> ())
              pr.regions
        | None -> ())
      m.procs;
    match pick_list rng !shared with
    | Some (p, r, rg) ->
        let off, len = draw_range ~cap:4 rg in
        Some (Mlock { p; r; off; len })
    | None -> None
  in
  let cand_munlock () =
    Option.bind (pick_live_region ()) (fun (p, r, rg) ->
        Option.map
          (fun (off, len) -> Munlock { p; r; off; len })
          (pick_list rng rg.wired))
  in
  (* Descending: a trace depends on the order [pick_list] draws from. *)
  let kwire_slots ~held =
    List.rev (slots max_kwires (fun k -> (m.kwires.(k) <> None) = held))
  in
  let cand_kwire () =
    Option.map
      (fun k -> Kwire { k; npages = 1 + Sim.Rng.int rng max_kwire_pages })
      (pick_list rng (kwire_slots ~held:false))
  in
  let cand_kunwire () =
    Option.map (fun k -> Kunwire { k }) (pick_list rng (kwire_slots ~held:true))
  in
  let cand_vsl_grab () =
    cand_range ~cap:4 (fun p r off len -> Vsl_grab { p; r; off; len })
  in
  let cand_vsl_drop () =
    let holders =
      slots max_procs (fun p ->
          match m.procs.(p) with Some pr -> pr.vsl <> None | None -> false)
    in
    Option.map (fun p -> Vsl_drop { p }) (pick_list rng holders)
  in
  let cand_fork () =
    match
      (pick_list rng (live_proc_slots m), pick_list rng (free_proc_slots m))
    with
    | Some parent, Some child -> Some (Fork { parent; child })
    | _ -> None
  in
  let cand_exit () =
    Option.map (fun p -> Exit { p }) (pick_list rng (live_proc_slots m))
  in
  let cand_spawn () =
    Option.map (fun p -> Spawn { p }) (pick_list rng (free_proc_slots m))
  in
  let cand_pressure () = Some (Pressure { npages = 8 + Sim.Rng.int rng 41 }) in
  let chan_slots ~live = slots max_chans (fun k -> m.chans.(k) = live) in
  let cand_pipe_open () =
    Option.map
      (fun k -> Pipe_open { k })
      (pick_list rng (chan_slots ~live:false))
  in
  let cand_pipe_close () =
    Option.map
      (fun k -> Pipe_close { k })
      (pick_list rng (chan_slots ~live:true))
  in
  let pick_byte_range rg =
    (* Bias toward page alignment so mexp can actually pass map entries,
       with unaligned offsets and sub-page lengths in the mix. *)
    let total = rg.npages * page_bytes in
    let off =
      if Sim.Rng.int rng 2 = 0 then page_bytes * Sim.Rng.int rng rg.npages
      else Sim.Rng.int rng total
    in
    let room = total - off in
    let len =
      match Sim.Rng.int rng 3 with
      | 0 -> 1 + Sim.Rng.int rng (min 512 room)
      | 1 -> min room page_bytes
      | _ -> min room (page_bytes * (1 + Sim.Rng.int rng chan_cap_pages))
    in
    (off, len)
  in
  let cand_pipe_write () =
    match (pick_list rng (chan_slots ~live:true), pick_live_region ()) with
    | Some k, Some (p, r, rg) ->
        let off, len = pick_byte_range rg in
        (* Loaning faults source pages in one by one; an injected pagein
           error mid-range would leak the pages already wired, so
           fault-mode traces stick to copy and mexp (which stages whole
           map entries without touching the frames). *)
        let pol_ix =
          if faults then 2 * Sim.Rng.int rng 2
          else Sim.Rng.int rng (List.length Ipc.all_policies)
        in
        Some
          (Pipe_write
             { k; p; r; off; len; pol_ix; vsl = Sim.Rng.int rng 6 = 0 })
    | _ -> None
  in
  let cand_pipe_read () =
    match (pick_list rng (chan_slots ~live:true), pick_live_region ()) with
    | Some k, Some (p, r, rg) ->
        let off, len = pick_byte_range rg in
        Some (Pipe_read { k; p; r; off; len; vsl = Sim.Rng.int rng 6 = 0 })
    | _ -> None
  in
  let cands =
    [
      (18, cand_read);
      (26, cand_write);
      (14, cand_mmap);
      (7, cand_munmap);
      (6, cand_mprotect);
      (3, cand_minherit);
      (3, cand_madvise);
      (3, cand_msync);
      (6, cand_fork);
      (2, cand_exit);
      (2, cand_spawn);
      (4, cand_pressure);
      (3, cand_pipe_open);
      (1, cand_pipe_close);
      (12, cand_pipe_write);
      (12, cand_pipe_read);
    ]
    (* Under injected I/O errors wiring faults can fail mid-range, which
       would wedge the two kernels differently: keep wiring out of
       fault-mode traces. *)
    @ (if faults then []
       else
         [
           (5, cand_mlock);
           (4, cand_munlock);
           (3, cand_mprotect_wired);
           (3, cand_mlock_shared);
           (3, cand_kwire);
           (2, cand_kunwire);
           (4, cand_vsl_grab);
           (3, cand_vsl_drop);
         ])
  in
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 cands in
  let draw () =
    let roll = Sim.Rng.int rng total in
    let rec go acc = function
      | (w, c) :: rest -> if roll < acc + w then c () else go (acc + w) rest
      | [] -> assert false
    in
    go 0 cands
  in
  let rec attempt n =
    if n = 0 then
      match cand_spawn () with
      | Some op when Option.is_some (resolve m op) -> op
      | _ -> Pressure { npages = 8 + Sim.Rng.int rng 25 }
    else
      match draw () with
      | Some op when Option.is_some (resolve m op) -> op
      | _ -> attempt (n - 1)
  in
  attempt 40

(* -- the differential driver -------------------------------------------- *)

type cfg = {
  seed : int;
  nops : int;
  audit_every : int;
  faults : bool;
  shrink : bool;
  artifact_dir : string option;
  corrupt : (int * corruption) option;
      (** apply the corruption at the first op whose original index
          reaches the threshold (so shrunken replays still trigger it) *)
  ram_pages : int;
  swap_pages : int;
  trace_buf : int;
  tiers : bool;  (** boot on a fast+slow tier pair instead of one device *)
}

let default_cfg =
  {
    seed = 42;
    nops = 5000;
    audit_every = 100;
    faults = false;
    shrink = false;
    artifact_dir = None;
    corrupt = None;
    ram_pages = 256;
    swap_pages = 2048;
    trace_buf = 4096;
    tiers = false;
  }

let machine_config cfg =
  let base =
    {
      Machine.default_config with
      ram_pages = cfg.ram_pages;
      swap_pages = cfg.swap_pages;
      seed = cfg.seed;
      trace_buf = Some cfg.trace_buf;
      fault_plan =
        (if cfg.faults then
           Some
             (fun () ->
               Sim.Fault_plan.create ~seed:cfg.seed ~read_error_rate:0.005
                 ~write_error_rate:0.005 ())
         else None);
    }
  in
  if cfg.tiers then
    (* Same total slot budget, split across a fast and a slow device, so
       tiered runs see the identical out-of-swap pressure points. *)
    Machine.tiered ~fast_pages:(cfg.swap_pages / 4)
      ~slow_pages:(cfg.swap_pages - (cfg.swap_pages / 4))
      base
  else base

type drive_source = Fresh of int | Replay of (int * op) list

(* One full run: boot both systems, feed them the same resolved actions,
   audit every [audit_every] executed ops and once at the end.  Stops at
   the first bug.  Returns the bug, the trace actually fed (with original
   indices), how many of its ops resolved and ran, and both machines'
   observability sources for artifacts. *)
let drive cfg src =
  let config = machine_config cfg in
  let eu = Exec_uvm.boot ~config () in
  let eb = Exec_bsd.boot ~config () in
  let m = fresh_model ~ram_pages:cfg.ram_pages in
  let rng = Sim.Rng.create ~seed:cfg.seed in
  let bug = ref None in
  let trace = ref [] in
  let pending = ref cfg.corrupt in
  let executed = ref 0 in
  let audit_one i run_audit =
    if !bug = None then
      try run_audit ()
      with Check.Audit_failure f -> bug := Some (Audit_bug { op_index = i; f })
  in
  let audit_both i =
    audit_one i (fun () -> Exec_uvm.audit eu);
    audit_one i (fun () -> Exec_bsd.audit eb)
  in
  let step (i, op) =
    (match !pending with
    | Some (n, c) when i >= n ->
        pending := None;
        ignore (apply_corruption eu c : bool)
    | _ -> ());
    match resolve m op with
    | None -> () (* stale op in a shrunken trace: skip *)
    | Some a ->
        apply m op a;
        (match op with
        | Pressure _ | Kwire _ | Vsl_grab _ ->
            m.pressure_until <- max m.pressure_until (i + 24)
        | _ -> ());
        let side name f =
          match f () with
          | o -> Ok o
          | exception e -> Error (name, Printexc.to_string e)
        in
        (match side Exec_uvm.name (fun () -> Exec_uvm.exec eu op a) with
        | Error (system, exn) ->
            bug := Some (Crash { op_index = i; op; system; exn })
        | Ok ou -> (
            match side Exec_bsd.name (fun () -> Exec_bsd.exec eb op a) with
            | Error (system, exn) ->
                bug := Some (Crash { op_index = i; op; system; exn })
            | Ok ob ->
                (* Eviction timing may legitimately differ between the
                   kernels, so Oom is compared as a wildcard — but only
                   while memory is plausibly short: inside the model's
                   pressure window, or while either kernel is measurably
                   low on pages or swap.  A lone Oom on a calm machine is
                   a real divergence.  Under fault injection retry counts
                   diverge, so outcomes are not compared at all — the
                   audits are the oracle there. *)
                if (not cfg.faults) && ou <> ob then begin
                  let oom_excused =
                    (ou = Oom || ob = Oom)
                    && (i <= m.pressure_until || Exec_uvm.memory_tight eu
                      || Exec_bsd.memory_tight eb)
                  in
                  if not oom_excused then
                    bug :=
                      Some (Mismatch { op_index = i; op; uvm = ou; bsd = ob })
                end));
        incr executed;
        if !bug = None && cfg.audit_every > 0 && !executed mod cfg.audit_every = 0
        then audit_both i
  in
  (match src with
  | Fresh n ->
      let i = ref 0 in
      while !bug = None && !i < n do
        let op = gen rng m ~faults:cfg.faults in
        trace := (!i, op) :: !trace;
        step (!i, op);
        incr i
      done;
      trace := List.rev !trace
  | Replay ops ->
      List.iter (fun iop -> if !bug = None then step iop) ops;
      trace := ops);
  if !bug = None then audit_both (max 0 (!executed - 1));
  (!bug, !trace, !executed, [ Exec_uvm.source eu; Exec_bsd.source eb ])

let replay cfg ops =
  let bug, _, executed, _ = drive cfg (Replay ops) in
  (bug, executed)

(* -- trace shrinking (ddmin) -------------------------------------------- *)

let split_chunks l n =
  let len = List.length l in
  let size = max 1 ((len + n - 1) / n) in
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: tl ->
        if k = size then go (List.rev cur :: acc) [ x ] 1 tl
        else go acc (x :: cur) (k + 1) tl
  in
  go [] [] 0 l

let ddmin ~test ops =
  let rec go ops n =
    let len = List.length ops in
    if len <= 1 then ops
    else
      let chunks = split_chunks ops n in
      let complements =
        List.mapi
          (fun k _ ->
            List.concat (List.filteri (fun j _ -> j <> k) chunks))
          chunks
      in
      match List.find_opt test complements with
      | Some smaller -> go smaller (max 2 (n - 1))
      | None -> if n < len then go ops (min len (2 * n)) else ops
  in
  if test ops then go ops 2 else ops

(* Shrink [trace] to a minimal subsequence whose replay fails with the
   same bug key.  Replays audit after every op so the failure is pinned
   to the earliest op that causes it. *)
let shrink_trace cfg trace bug0 =
  let rcfg = { cfg with audit_every = 1; shrink = false; artifact_dir = None } in
  let run_subset subset = fst (replay rcfg subset) in
  let key =
    match run_subset trace with Some b -> bug_key b | None -> bug_key bug0
  in
  let test subset =
    match run_subset subset with
    | Some b -> String.equal (bug_key b) key
    | None -> false
  in
  ddmin ~test trace

(* -- crash artifacts ---------------------------------------------------- *)

let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* An op object: its trace index ["i"], its name ["op"] and its operands. *)
let op_json (i, op) =
  let name, operands = encode op in
  Sim.Json.Object
    (("i", Sim.Json.Int i) :: ("op", String name)
    :: List.map (fun (k, v) -> (k, Sim.Json.Int v)) operands)

let op_of_json j =
  let int (k, v) =
    match v with
    | Sim.Json.Int n -> (k, n)
    | _ -> failwith (Printf.sprintf "operand %S is not an int" k)
  in
  match j with
  | Sim.Json.Object fields -> (
      match List.partition (fun (k, _) -> k = "op") fields with
      | [ (_, String name) ], rest -> (
          let operands = List.map int rest in
          match List.assoc_opt "i" operands with
          | Some i -> (i, decode name operands)
          | None -> failwith "missing index \"i\"")
      | _ -> failwith "missing op name")
  | _ -> failwith "op is not an object"

let bug_json = function
  | Audit_bug { op_index; f } ->
      Sim.Json.Object
        [ ("kind", String "audit"); ("op_index", Int op_index);
          ("system", String f.Check.system);
          ("subsystem", String (Check.subsystem_name f.Check.subsys));
          ("invariant", String f.Check.invariant);
          ("detail", String f.Check.detail) ]
  | Mismatch { op_index; op; uvm; bsd } ->
      Sim.Json.Object
        [ ("kind", String "mismatch"); ("op_index", Int op_index);
          ("op", op_json (op_index, op));
          ("uvm", String (outcome_to_string uvm));
          ("bsd", String (outcome_to_string bsd)) ]
  | Crash { op_index; op; system; exn } ->
      Sim.Json.Object
        [ ("kind", String "crash"); ("op_index", Int op_index);
          ("op", op_json (op_index, op)); ("system", String system);
          ("exn", String exn) ]

let schema = "uvm-sim-torture/1"

(* A crash file records every [cfg] field a replay depends on. *)
let crash_json ~cfg ~bug ~trace ~minimal =
  let corrupt (at, c) =
    let kind = fst (List.find (fun (_, c') -> c' = c) corruptions) in
    ("corrupt", Sim.Json.Object [ ("kind", String kind); ("at", Int at) ])
  in
  Sim.Json.Object
    ([ ("schema", Sim.Json.String schema); ("seed", Int cfg.seed);
       ("nops", Int cfg.nops); ("audit_every", Int cfg.audit_every);
       ("faults", Bool cfg.faults); ("tiers", Bool cfg.tiers);
       ("ram_pages", Int cfg.ram_pages); ("swap_pages", Int cfg.swap_pages);
       ("trace_buf", Int cfg.trace_buf) ]
    @ Option.to_list (Option.map corrupt cfg.corrupt)
    @ [ ("failure", bug_json bug); ("trace", Sim.Json.list op_json trace) ]
    @ Option.to_list
        (Option.map (fun m -> ("minimal", Sim.Json.list op_json m)) minimal))

let read_crash doc =
  let field k get =
    match get (Sim.Json.member k doc) with
    | Some v -> v
    | None -> failwith (Printf.sprintf "crash file: bad or missing %S" k)
  in
  let int k = field k (function Sim.Json.Int n -> Some n | _ -> None) in
  let bool k = field k (function Sim.Json.Bool b -> Some b | _ -> None) in
  if field "schema" (function String s -> Some s | _ -> None) <> schema then
    failwith ("crash file: schema is not " ^ schema);
  let corrupt =
    match Sim.Json.member "corrupt" doc with
    | Null -> None
    | c -> (
        match (Sim.Json.member "at" c, Sim.Json.member "kind" c) with
        | Int at, String kind when List.mem_assoc kind corruptions ->
            Some (at, List.assoc kind corruptions)
        | _ -> failwith "crash file: bad \"corrupt\"")
  in
  let ops key =
    List.mapi
      (fun n j ->
        try op_of_json j
        with Failure e ->
          failwith (Printf.sprintf "crash file: %s op %d: %s" key n e))
      (field key (function List l -> Some l | _ -> None))
  in
  ( {
      default_cfg with
      seed = int "seed";
      nops = int "nops";
      audit_every = int "audit_every";
      faults = bool "faults";
      tiers = bool "tiers";
      ram_pages = int "ram_pages";
      swap_pages = int "swap_pages";
      trace_buf = int "trace_buf";
      corrupt;
    },
    ops (if Sim.Json.member "minimal" doc = Null then "trace" else "minimal") )

(* The observability files, each written by the exporter behind the CLI's
   --NAME-out flag: the span ring, the stats, the causal view of the crash
   (finished span trees plus the span stack that was open when the op
   died), the last stretch of periodic samples leading up to it, and the
   lock observatory at the moment of death (what was held, in what order
   classes were seen nested, and whether the order graph cycled). *)
let artifact_files =
  Sim.Trace_export.
    [
      (Trace, "trace.chrome.json");
      (Stats, "stats.json");
      (Spans, "spans.json");
      (Metrics, "metrics.json");
      (Lockstat, "lockstat.json");
    ]

let write_artifacts ~dir ~cfg ~bug ~trace ~minimal ~sources =
  mkdirs dir;
  let path name = Filename.concat dir name in
  Sim.Json.to_file (path "crash.json") (crash_json ~cfg ~bug ~trace ~minimal);
  List.iter
    (fun (a, name) ->
      Sim.Json.to_file (path name) (Sim.Trace_export.export a sources))
    artifact_files;
  Out_channel.with_open_text (path "events.txt") (fun oc ->
      let fmt = Format.formatter_of_out_channel oc in
      Sim.Trace_export.pp_dump fmt sources;
      Format.pp_print_flush fmt ())

(* -- entry point -------------------------------------------------------- *)

type result = {
  r_bug : bug option;
  r_trace : (int * op) list;
  r_minimal : (int * op) list option;
  r_artifacts : string option;  (** directory written, if any *)
}

let run cfg =
  let bug, trace, _, sources = drive cfg (Fresh cfg.nops) in
  let minimal =
    match bug with
    | Some b when cfg.shrink -> Some (shrink_trace cfg trace b)
    | _ -> None
  in
  let artifacts =
    match (cfg.artifact_dir, bug) with
    | Some dir, Some b ->
        let dir = Filename.concat dir (Printf.sprintf "seed-%d" cfg.seed) in
        write_artifacts ~dir ~cfg ~bug:b ~trace ~minimal ~sources;
        Some dir
    | _ -> None
  in
  { r_bug = bug; r_trace = trace; r_minimal = minimal; r_artifacts = artifacts }
