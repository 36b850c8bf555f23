(** Vnodes: the I/O system's handle on a file.

    The paper's central object-management point (§4) is that UVM embeds its
    memory object *inside* the vnode instead of allocating separate
    VM structures.  We model the embedding with the extensible field
    {!vm_private}: the [uvm] library stores its [uvm_vnode] object there,
    while the [bsdvm] library keeps its own separately-allocated object and
    pager structures plus a hash table, exactly as 4.4BSD did. *)

type vm_private = ..
(** Slot for the VM system's per-vnode state. *)

type vm_private += No_vm

type t = {
  vid : int;
  name : string;
  name_hash : int;  (** [Hashtbl.hash name], the seed of the file's pattern *)
  size : int;  (** file length in bytes *)
  mutable usecount : int;  (** active references *)
  pages : bytes array;
      (** the "on-disk" pages written back so far, each holding the page's
          bytes up to EOF; [Bytes.empty] for a page never written, whose
          contents are the generated pattern *)
  mutable vm_private : vm_private;
  mutable incore : bool;  (** has in-core (cached) state *)
  mutable lru_node : t Sim.Dlist.node option;  (** free-LRU linkage *)
  mutable last_read_end : int;  (** read-ahead detector: end of last read *)
}

val pp : Format.formatter -> t -> unit
