(* The one reviewed site where hash-table bindings are allowed to escape:
   everything is sorted by key before it leaves, so callers never observe
   bucket order. Keep every other Hashtbl.iter/fold out of the tree —
   Bn_lint rule D003 enforces this. *)
[@@@lint.allow "D003" "single reviewed traversal site: bindings are sorted by key before escaping"]

let sorted_bindings tbl =
  List.sort
    (fun (ka, _) (kb, _) -> compare ka kb)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let sorted_keys tbl = List.map fst (sorted_bindings tbl)

let find_first p tbl =
  List.find_opt (fun (k, v) -> p k v) (sorted_bindings tbl)
