type vm_private = ..
type vm_private += No_vm

type t = {
  vid : int;
  name : string;
  name_hash : int;
  size : int;
  mutable usecount : int;
  pages : bytes array;
  mutable vm_private : vm_private;
  mutable incore : bool;
  mutable lru_node : t Sim.Dlist.node option;
  mutable last_read_end : int;
}

let pp ppf t =
  Format.fprintf ppf "vnode#%d(%s use=%d size=%d incore=%b)" t.vid t.name
    t.usecount t.size t.incore
